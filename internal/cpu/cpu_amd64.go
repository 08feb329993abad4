//go:build amd64 && !purego

package cpu

// AVX2 reports whether the AVX2 kernels may run: the CPU implements AVX and
// AVX2 and the OS saves the YMM state across context switches. It is false
// on every other architecture and under the purego build tag.
var AVX2 = detectAVX2()

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymmXCR0 = 0b110   // XCR0: SSE and AVX state enabled by the OS
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&ymmXCR0 != ymmXCR0 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
