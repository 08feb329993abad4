//go:build !amd64 || purego

package cpu

// AVX2 and AVX512 are false off amd64 and under the purego build tag: the Go
// kernels run.
const (
	AVX2   = false
	AVX512 = false
)
