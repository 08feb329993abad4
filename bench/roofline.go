package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// The machine's two ceilings, measured in this binary so they share the
// run's noise: sustained memory bandwidth (stream copy and triad) and scalar
// multiply-add rate. The Go compiler does not vectorise, so the scalar rate
// is the ceiling the kernels in internal/kgc can reach.

// lastLevelCacheBytes reads the largest cache the kernel reports for cpu0
// (0 when sysfs is unavailable).
func lastLevelCacheBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// streamArrayBytes sizes one stream array at 4× the last-level cache, capped
// at limit: a VM reports its host's whole shared L3 (260 MiB here), and
// three arrays of four times that would not fit a small sandbox.
func streamArrayBytes(limit int) (arrayBytes, llcBytes int) {
	llcBytes = lastLevelCacheBytes()
	arrayBytes = 4 * llcBytes
	if arrayBytes == 0 || arrayBytes > limit {
		arrayBytes = limit
	}
	return arrayBytes, llcBytes
}

// streamGBps is the better of copy (16 B moved per element) and triad (24 B)
// over arrays of arrayBytes each. Bytes are computed from the array sizes.
func streamGBps(arrayBytes int) float64 {
	n := arrayBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 0.5
	}
	copyTime := medianOf(3, func() { copy(a, b) })
	triadTime := medianOf(3, func() {
		b, c := b[:len(a)], c[:len(a)]
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	gbps := func(bytesPerElem int, d time.Duration) float64 {
		return float64(bytesPerElem*n) / d.Seconds() / 1e9
	}
	return math.Max(gbps(16, copyTime), gbps(24, triadTime))
}

var fmaSink float64

// fmaGFLOPs runs eight independent multiply-add chains — enough to cover the
// unit's latency — and counts two operations per step. The steps are written
// x*y + z, as the kernels write them: the compiler fuses that into one FMA
// where the target guarantees the instruction (arm64, GOAMD64=v3) and issues
// a multiply and an add otherwise, so this is the ceiling the kernels in
// internal/kgc actually have under the same build.
func fmaGFLOPs() float64 {
	const iters = 4 << 20
	d := medianOf(3, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		x, y := 0.999999, 1e-9
		for i := 0; i < iters; i++ {
			a0 = a0*x + y
			a1 = a1*x + y
			a2 = a2*x + y
			a3 = a3*x + y
			a4 = a4*x + y
			a5 = a5*x + y
			a6 = a6*x + y
			a7 = a7*x + y
		}
		fmaSink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	return 2 * 8 * iters / d.Seconds() / 1e9
}
