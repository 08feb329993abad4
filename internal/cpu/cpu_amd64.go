//go:build amd64 && !purego

package cpu

// AVX2 reports whether the AVX2 kernels may run: the CPU implements AVX and
// AVX2 and the OS saves the YMM state across context switches. AVX512
// reports whether the 512-bit kernels may run: AVX2 holds, the CPU
// implements AVX-512F and the OS saves the opmask and the full ZMM state.
// Only the foundation subset is asked for, so those kernels use no
// instruction outside it. Both are false on every other architecture and
// under the purego build tag.
var AVX2, AVX512 = detect()

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

func detect() (hasAVX2, hasAVX512 bool) {
	const (
		osxsave = 1 << 27     // CPUID.1:ECX
		avx     = 1 << 28     // CPUID.1:ECX
		avx2    = 1 << 5      // CPUID.7.0:EBX
		avx512f = 1 << 16     // CPUID.7.0:EBX
		ymmXCR0 = 0b110       // XCR0: SSE and AVX state enabled by the OS
		zmmXCR0 = 0b1110_0110 // XCR0: the same plus opmask, ZMM_Hi256 and Hi16_ZMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	hasAVX2 = xcr0&ymmXCR0 == ymmXCR0 && b&avx2 != 0
	hasAVX512 = hasAVX2 && xcr0&zmmXCR0 == zmmXCR0 && b&avx512f != 0
	return hasAVX2, hasAVX512
}
