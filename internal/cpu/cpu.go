// Package cpu reports the one CPU feature this module selects code on.
//
// The scoring lane (internal/kgc, with its tile fill in internal/kgc/store)
// has AVX2 assembly kernels next to its Go kernels. Which of the two a
// process runs is decided here, once, from what the machine is — there is
// no option, flag or environment variable, because both lanes produce the
// same bits and only one of them is ever the faster choice on a given host.
package cpu
