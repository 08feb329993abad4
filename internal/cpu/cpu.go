// Package cpu reports the two CPU features this module selects code on.
//
// Five lanes have AVX2 assembly kernels next to their Go code: scoring
// (internal/kgc's tile kernels, with their tile fill in
// internal/kgc/store), query building (internal/kgc's row-accumulate under
// ConvE's FC layer, TuckER's core contraction and RESCAL's tail queries, and
// ConvE's conv layer), the base64 decode of inline snapshots in POST
// /v1/jobs bodies (internal/service), the rank count, the compare under
// every strip of the evaluation's rank merge (internal/eval), and the
// Probabilistic pool draw: its stream, count of drawing weights, uniforms
// and log(u)/w keys (internal/sample). Scoring and query building have a
// third, 512-bit lane for CPUs with AVX-512F: an L1 tile kernel and a
// row-accumulate with the same bits, and certified float32 dot, L1 and
// RotatE kernels, sixteen candidates a register, that the rank path runs
// within a proven error bound over a tile the store rounds to float32 as it
// fills it. Which code a process runs is decided here,
// once, from what the machine is — there is no option, flag or environment
// variable, because every version of a lane produces the same scores where
// scores are handed out and the same ranks, and only one of them is ever
// the faster choice on a given host.
package cpu
