package sample

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the stream is held to rand.NewSource on:
// negative, small, 0 (which math/rand replaces), and both sides of 2³¹−1,
// the modulus math/rand reduces a seed by.
func streamSeeds() []int64 {
	var seeds []int64
	for s := int64(-3); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	return append(seeds, 1<<31-2, 1<<31-1, 1<<31, 1<<40+7, math.MinInt64)
}

// TestStreamMatchesNewSource: Uint64, Int63 and Float64 through rand.New
// read rand.NewSource's values, value for value, for many times the 607
// outputs that seed the stream, and Seed restarts it.
func TestStreamMatchesNewSource(t *testing.T) {
	for _, seed := range streamSeeds() {
		st, src := NewStream(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 5*streamLen+11; i++ {
			if got, want := st.Uint64(), src.Uint64(); got != want {
				t.Fatalf("seed %d: output %d is %#x, rand.NewSource gives %#x", seed, i, got, want)
			}
		}
		st.Seed(seed)
		got, want := rand.New(st), rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			var g, w float64
			switch i % 3 {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				g, w = float64(got.Int63()), float64(want.Int63())
			default:
				g, w = float64(got.Intn(1000)), float64(want.Intn(1000))
			}
			if g != w {
				t.Fatalf("seed %d: value %d through rand.New is %v, want %v", seed, i, g, w)
			}
		}
	}
}

// perValue is what the per-value draw reads for n uniforms: rng.Float64,
// drawn again while it is 0.
func perValue(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		for out[i] == 0 {
			out[i] = rng.Float64()
		}
	}
	return out
}

// TestStreamUniformsInBulk: uniforms of every length from 0 to past two
// refills, one after another across chunk edges, are the per-value draws,
// and leave the stream where they leave rand.NewSource's.
func TestStreamUniformsInBulk(t *testing.T) {
	for _, seed := range streamSeeds() {
		st, rng := NewStream(seed), rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 5, 300, streamLen - 306, streamLen, 1, 2*streamLen + 3, 9000} {
			got := make([]float64, n)
			st.uniforms(got)
			want := perValue(rng, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, %d uniforms: value %d is %v, want %v", seed, n, i, got[i], want[i])
				}
			}
		}
		if st.Uint64() != rng.Uint64() {
			t.Fatalf("seed %d: the bulk draw left the stream elsewhere", seed)
		}
	}
}

// TestStreamUniformsRetry plants outputs that rand.Float64 turns into 1
// (which it draws again) and into 0 (which the weighted draw draws again),
// at chunk edges and in runs, and holds the bulk draw to the per-value one.
func TestStreamUniformsRetry(t *testing.T) {
	const (
		toOne  = 1<<63 - 1   // rounds to 2⁶³: Float64 draws again
		toOne2 = 1<<63 - 512 // the smallest that does
		below  = 1<<63 - 513 // the largest that does not
		zero   = 1 << 63     // the low 63 bits are 0
	)
	plants := [][]uint64{
		{toOne}, {zero}, {toOne2, zero, toOne}, {below}, {zero, zero, zero, 7},
	}
	for _, plant := range plants {
		for _, at := range []int{0, 1, streamLen - 2, streamLen - 1} {
			for _, n := range []int{1, 3, 20, streamLen + 4} {
				st := NewStream(11)
				copy(st.vec[at:], plant)
				ref := *st
				got := make([]float64, n)
				st.uniforms(got)
				want := perValue(rand.New(&ref), n)
				for i := range want {
					if got[i] != want[i] || !(got[i] > 0 && got[i] < 1) {
						t.Fatalf("plant %#x at %d, %d uniforms: value %d is %v, want %v", plant, at, n, i, got[i], want[i])
					}
				}
				if st.Uint64() != ref.Uint64() {
					t.Fatalf("plant %#x at %d, %d uniforms: the bulk draw left the stream elsewhere", plant, at, n)
				}
			}
		}
	}
}

// TestUniformKeepRule: the integer rule uniforms keeps a value by is
// rand.Float64's, over every Int63 within 4 096 of either end.
func TestUniformKeepRule(t *testing.T) {
	for _, base := range []uint64{0, 1<<63 - 4096} {
		for v := base; v < base+4096; v++ {
			u := float64(int64(v)) / (1 << 63)
			if keep := v-1 < 1<<63-513; keep != (u != 0 && u != 1) {
				t.Fatalf("Int63 %#x: kept %v, but Float64 gives %v", v, keep, u)
			}
		}
	}
}

// TestStreamUniformsRounding plants outputs whose conversion to a double
// rounds — halfway cases both ways, one unit either side, across every
// exponent — and small ones that convert exactly, and holds the bulk draw
// to rand.Float64 on them.
func TestStreamUniformsRounding(t *testing.T) {
	var plant []uint64
	for e := 0; e < 63; e++ {
		top := uint64(1) << e
		plant = append(plant, top, top+1, top-1)
		if e > 53 {
			half := uint64(1) << (e - 53) // half an ulp of 2^e's binade
			for _, m := range []uint64{1, 2, 3, 5, 1<<52 - 1} {
				base := top + m*(half<<1) // a double
				plant = append(plant, base+half, base+half-1, base+half+1, base-half)
			}
		}
	}
	st := NewStream(5)
	for len(plant) > 0 {
		n := copy(st.vec[:], plant)
		plant = plant[n:]
		st.pos = 0
		ref := *st
		got := make([]float64, n)
		st.uniforms(got)
		want := perValue(rand.New(&ref), n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("value %d: uniform %v, rand.Float64 gives %v", i, got[i], want[i])
			}
		}
	}
}
