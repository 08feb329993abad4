// Package cpu reports the two CPU features this module selects code on.
//
// Four lanes have AVX2 assembly kernels next to their Go code: scoring
// (internal/kgc's tile kernels, with their tile fill in
// internal/kgc/store), query building (internal/kgc's row-accumulate under
// ConvE's FC layer, TuckER's core contraction and RESCAL's tail queries),
// the base64 decode of inline snapshots in POST /v1/jobs bodies
// (internal/service) and the rank count, the compare under every strip of
// the evaluation's rank merge (internal/eval). Scoring has a third, 512-bit
// lane for CPUs with AVX-512F: an L1 tile kernel with the same bits, and an
// FMA dot kernel and an approximate RotatE kernel that the rank path runs
// within a proven error bound. Which code a process runs is decided here,
// once, from what the machine is — there is no option, flag or environment
// variable, because every version of a lane produces the same scores where
// scores are handed out and the same ranks, and only one of them is ever
// the faster choice on a given host.
package cpu
