//go:build !race

package sample

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestWeightedAllocations pins the exact-size pool: one allocation per call,
// the ids it returns; keys and the select's copy of them are pooled scratch.
// The race detector makes sync.Pool drop a share of what is put back, so the
// file is built without it; the collector, which empties the pool too, is
// paused while it measures.
func TestWeightedAllocations(t *testing.T) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	weights := make([]float64, 5000)
	for i := range weights {
		weights[i] = float64(1 + i%17)
	}
	rng := rand.New(rand.NewSource(1))
	if got := testing.AllocsPerRun(10, func() { Weighted(rng, nil, weights, 600) }); got != 1 {
		t.Fatalf("Weighted allocates %v times per call, want 1", got)
	}
}
