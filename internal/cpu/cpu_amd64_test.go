//go:build amd64 && !purego

package cpu

import (
	"os"
	"strings"
	"testing"
)

// The kernel's view of the CPU is an independent reading of the same three
// facts (CPUID feature bits and OS-enabled YMM state): where /proc/cpuinfo
// exists, its avx2 flag and ours must agree.
func TestAVX2AgreesWithProcCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want := false
			for _, f := range strings.Fields(flags) {
				want = want || f == "avx2"
			}
			if AVX2 != want {
				t.Fatalf("AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
