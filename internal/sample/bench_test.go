package sample

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkWeighted times one Probabilistic pool draw the way an evaluation
// plan runs it (Scratch.Draw from a Stream, then Select) on an L-WD-like
// column: |E| = 12 000 entities of which 8 750 carry a score, small integer
// scores with a long tail, n_s = |E|/10 = 1 200. It reports the time per
// positive weight, whole and split into its three phases: stream (the
// uniforms, Draw), key (log(u)/w) and select (the threshold, its cut and
// the emit).
func BenchmarkWeighted(b *testing.B) {
	const entities, scored = 12000, 8750
	const ns = entities / 10
	rng := rand.New(rand.NewSource(1))
	ids := make([]int32, 0, scored)
	for e := int32(0); len(ids) < scored; e++ {
		if rng.Intn(entities-int(e)) < scored-len(ids) {
			ids = append(ids, e)
		}
	}
	weights := make([]float64, scored)
	for i := range weights {
		weights[i] = math.Floor(1 + 4*rng.ExpFloat64())
	}
	st := NewStream(1)
	var s Scratch
	var stream, key, pick time.Duration
	b.ReportAllocs()
	for b.Loop() {
		t0 := time.Now()
		s.Draw(st, weights, ns)
		t1 := time.Now()
		at := s.key(weights, ns)
		t2 := time.Now()
		s.pick(ids, at, ns)
		t3 := time.Now()
		stream, key, pick = stream+t1.Sub(t0), key+t2.Sub(t1), pick+t3.Sub(t2)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) / scored }
	b.ReportMetric(per(stream+key+pick), "ns/weight")
	b.ReportMetric(per(stream), "stream-ns/weight")
	b.ReportMetric(per(key), "key-ns/weight")
	b.ReportMetric(per(pick), "select-ns/weight")
}
