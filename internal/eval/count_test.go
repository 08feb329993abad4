package eval

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"kgeval/internal/cpu"
)

// FuzzCountScores holds the window's compare countWithin runs — the AVX2
// twin where internal/cpu finds AVX2 — to outsideGo: exactly the same
// counts above hi and below lo. The fuzzer picks the length (0 to 67, every
// residue mod 8 of the kernel's step), the strip's start (so the kernel
// reads from every alignment), which scores are lo and hi (the same one, the
// zero Bound's window [t, t], so that ties happen; or two, in either order),
// and the scores' bytes; the seeds are made of NaN, ±Inf, ±0, subnormals and
// ordinary values, and of random bytes.
func FuzzCountScores(f *testing.F) {
	if !cpu.AVX2 {
		f.Skip("no vector lane in this build or on this CPU: outsideGo is the only compare")
	}
	var special []byte
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -0x1p-1040, 1, -1, 0.5, math.MaxFloat64} {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	random := make([]byte, 8*37)
	rand.New(rand.NewSource(5)).Read(random)
	for n := range uint8(68) {
		f.Add(n, n%4, n/3, n/3, special)
		f.Add(n, n%4, n/3, n/5, special)
		f.Add(n, n%3, n/2, n/2, random)
		f.Add(n, n%3, n/2, n/7, random)
	}
	f.Fuzz(func(t *testing.T, nB, offB, loB, hiB uint8, data []byte) {
		n, off := int(nB)%68, int(offB)%4
		vals := make([]float64, off+n)
		var word [8]byte
		for i := range vals {
			for b := range word {
				if len(data) > 0 {
					word[b] = data[(8*i+b)%len(data)]
				}
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		scores, lo, hi := vals[off:], 1.0, 1.0
		if n > 0 {
			lo, hi = scores[int(loB)%n], scores[int(hiB)%n]
		}
		above, below := countOutside(scores, lo, hi)
		wantAbove, wantBelow := outsideGo(scores, lo, hi)
		if above != wantAbove || below != wantBelow {
			t.Fatalf("n=%d off=%d window [%v, %v]: %d above, %d below; Go loop %d, %d",
				n, off, lo, hi, above, below, wantAbove, wantBelow)
		}
	})
}

// BenchmarkCountScores times the window's compare over kgebench's n_s =
// 1 200 scores, on the Go loop and, where there is one, the AVX2 twin, in ns
// per score: the rung under Stages.RankMerge, before any known positive is
// taken back. The window is the zero Bound's, [t, t].
func BenchmarkCountScores(b *testing.B) {
	const n = 1200
	rng := rand.New(rand.NewSource(11))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	thr := scores[n/3]
	type lane struct {
		name    string
		outside func([]float64, float64, float64) (int, int)
	}
	lanes := []lane{{"go", outsideGo}}
	if cpu.AVX2 {
		lanes = append(lanes, lane{"avx2", countOutside})
	}
	for _, lane := range lanes {
		b.Run(lane.name, func(b *testing.B) {
			for b.Loop() {
				lane.outside(scores, thr, thr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/score")
		})
	}
}
