//go:build amd64 && !purego

package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// procFlags returns the flags line of /proc/cpuinfo, or skips the test where
// there is none.
func procFlags(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return strings.Fields(flags)
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
	return nil
}

// The kernel's view of the CPU is an independent reading of the same three
// facts (CPUID feature bits and OS-enabled YMM state): where /proc/cpuinfo
// exists, its avx2 flag and ours must agree.
func TestAVX2AgreesWithProcCPUInfo(t *testing.T) {
	if want := slices.Contains(procFlags(t), "avx2"); AVX2 != want {
		t.Fatalf("AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
	}
}

// The same for AVX-512F: the kernel lists avx512f only where it saves the
// ZMM state, and the 512-bit lane is only ever taken on top of AVX2.
func TestAVX512AgreesWithProcCPUInfo(t *testing.T) {
	if want := slices.Contains(procFlags(t), "avx512f"); AVX512 != want {
		t.Fatalf("AVX512 = %v, /proc/cpuinfo says %v", AVX512, want)
	}
	if AVX512 && !AVX2 {
		t.Fatal("AVX512 is set without AVX2")
	}
}
