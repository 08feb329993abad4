package eval

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"kgeval/internal/cpu"
)

// FuzzCountScores holds the strip compare blockQuery.count runs — the AVX2
// twin where internal/cpu finds AVX2 — to countGo: exactly the same better
// and tie counts. The fuzzer picks the length (0 to 67, every residue mod 8
// of the kernel's step), the strip's start (so the kernel reads from every
// alignment), which score is the threshold (so ties happen), and the scores'
// bytes; the seeds are made of NaN, ±Inf, ±0, subnormals and ordinary
// values, and of random bytes.
func FuzzCountScores(f *testing.F) {
	if !cpu.AVX2 {
		f.Skip("no vector lane in this build or on this CPU: countGo is the only compare")
	}
	var special []byte
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -0x1p-1040, 1, -1, 0.5, math.MaxFloat64} {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	random := make([]byte, 8*37)
	rand.New(rand.NewSource(5)).Read(random)
	for n := range uint8(68) {
		f.Add(n, n%4, n/3, special)
		f.Add(n, n%3, n/2, random)
	}
	f.Fuzz(func(t *testing.T, nB, offB, pick uint8, data []byte) {
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
		scores, thr := vals[off:], 1.0
		if n > 0 {
			thr = scores[int(pick)%n]
		}
		better, ties := countScores(scores, thr)
		wantBetter, wantTies := countGo(scores, thr)
		if better != wantBetter || ties != wantTies {
			t.Fatalf("n=%d off=%d threshold %v: %d better, %d ties; Go loop %d, %d",
				n, off, thr, better, ties, wantBetter, wantTies)
		}
	})
}

// BenchmarkCountScores times the strip compare over kgebench's n_s = 1 200
// scores, on the Go loop and, where there is one, the AVX2 twin, in ns per
// score: the rung under Stages.RankMerge, before any known positive is
// taken back.
func BenchmarkCountScores(b *testing.B) {
	const n = 1200
	rng := rand.New(rand.NewSource(11))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	thr := scores[n/3]
	type lane struct {
		name  string
		count func([]float64, float64) (int, int)
	}
	lanes := []lane{{"go", countGo}}
	if cpu.AVX2 {
		lanes = append(lanes, lane{"avx2", countScores})
	}
	for _, lane := range lanes {
		b.Run(lane.name, func(b *testing.B) {
			for b.Loop() {
				lane.count(scores, thr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/score")
		})
	}
}
