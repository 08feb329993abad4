//go:build amd64 && !purego

package sample

import (
	"reflect"
	"testing"

	"kgeval/internal/cpu"
)

// The draw's tests hold whatever lane init installed to the Go code, so
// they test the AVX2 kernels only if init installed them where it should.
func TestDrawLaneIsInstalled(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2: the Go lane runs")
	}
	pc := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"refill", refill, refillAVX2},
		{"positive", positive, vecPositive},
		{"toUniforms", toUniforms, vecToUniforms},
		{"logKeys", logKeys, vecLogKeys},
	} {
		if pc(c.got) != pc(c.want) {
			t.Errorf("%s is not the AVX2 lane on a CPU with AVX2", c.name)
		}
	}
}

// uniformsAVX2 converts a group only if it keeps all four, and stops at the
// first group that holds a 0 or an output that rounds to 1, so the Go lane
// draws those again; it must not stop at the largest output that is kept.
func TestUniformsAVX2StopsAtRetries(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2")
	}
	const keep, one = 1<<63 - 513, 1<<63 - 512
	for _, c := range []struct {
		src  []uint64
		done int
	}{
		{[]uint64{1, keep, 1 << 62, keep | 1<<63, 5, 6, 7, 8}, 8},
		{[]uint64{1, 2, 3, 4, 5, 0, 7, 8}, 4},
		{[]uint64{1, 2, 3, 4, 1 << 63, 6, 7, 8}, 4},
		{[]uint64{one, 2, 3, 4, 5, 6, 7, 8}, 0},
		{[]uint64{1, 2, 3, 4, 5, 6, 7, 1<<64 - 1}, 4},
	} {
		dst := make([]float64, len(c.src))
		if done := uniformsAVX2(&dst[0], &c.src[0], len(c.src)); done != c.done {
			t.Errorf("%#x: converted %d, want %d", c.src, done, c.done)
		}
		for i, x := range c.src[:c.done] {
			if want := float64(int64(x&(1<<63-1))) / (1 << 63); dst[i] != want {
				t.Errorf("%#x: uniform %v, want %v", x, dst[i], want)
			}
		}
	}
}
