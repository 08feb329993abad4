package service

import (
	"testing"
	"time"

	"kgeval/internal/kgc/store"
)

// TestEstimateJobBytesModelAware regresses the flat-table memory estimate:
// every architecture used to be costed as (|E|+|R|)·dim·8, which
// under-estimates RESCAL (d×d per relation) and TuckER (d³ core) by orders
// of magnitude at service dims. The estimate must separate the
// architectures: at equal dim the structured models dominate the flat
// ones, and their margin must reflect the actual dominant term.
func TestEstimateJobBytesModelAware(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const dim = 64
	est := func(name string) int64 {
		spec := JobSpec{Model: ModelSpec{Name: name, Dim: dim, Seed: 1}}
		return e.estimateJobBytes(spec, nil, store.Float64)
	}

	transe := est("TransE")
	for _, name := range []string{"RESCAL", "TuckER", "ConvE"} {
		if got := est(name); got <= transe {
			t.Errorf("estimateJobBytes(%s, dim %d) = %d, not above TransE's %d", name, dim, got, transe)
		}
	}
	// The flat-embedding architectures share one shape and one estimate.
	if dm := est("DistMult"); dm != transe {
		t.Errorf("estimateJobBytes(DistMult) = %d != TransE's %d; flat models should agree", dm, transe)
	}

	// The margins must come from the right terms: RESCAL's relation
	// matrices add |R|·d²·8 over TransE's |R|·d·8, TuckER's core adds d³·8.
	rels := int64(g.NumRelations)
	if got, want := est("RESCAL")-transe, rels*dim*dim*8-rels*dim*8; got != want {
		t.Errorf("RESCAL margin over TransE = %d bytes, want %d (|R|·d² matrices)", got, want)
	}
	if got, core := est("TuckER")-transe, int64(dim*dim*dim*8); got != core {
		t.Errorf("TuckER margin over TransE = %d bytes, want %d (d³ core)", got, core)
	}
}

// TestCompletionWindowStaleness regresses the stale-throughput bug: rate()
// documented returning 0 on a stale window but never checked, so a burst
// of completions followed by a quiet spell kept advertising the old drain
// rate through Retry-After indefinitely.
func TestCompletionWindowStaleness(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	now := base
	w := &completionWindow{now: func() time.Time { return now }}

	// Ten completions, one per second: a 1/s drain rate.
	for i := 0; i < 10; i++ {
		w.note(base.Add(time.Duration(i) * time.Second))
	}
	now = base.Add(9 * time.Second)
	if r := w.rate(); r <= 0 {
		t.Fatalf("fresh window: rate() = %v, want > 0", r)
	}
	// Just inside the horizon the window still counts...
	now = base.Add(9*time.Second + completionStaleness)
	if r := w.rate(); r <= 0 {
		t.Fatalf("window at the staleness horizon: rate() = %v, want > 0", r)
	}
	// ...but past it the measured rate no longer describes the engine.
	now = base.Add(9*time.Second + completionStaleness + time.Second)
	if r := w.rate(); r != 0 {
		t.Fatalf("stale window: rate() = %v, want 0", r)
	}
}

// TestRetryAfterStaleWindowFallsBack pins the client-visible consequence:
// with a stale completion window, RetryAfter must return the default
// rather than extrapolating the dead drain rate.
func TestRetryAfterStaleWindowFallsBack(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	now := base
	e.completions.now = func() time.Time { return now }
	for i := 0; i < 32; i++ {
		e.completions.note(base.Add(time.Duration(i) * 100 * time.Millisecond))
	}

	// Fresh: 10 jobs/s and an empty queue clamp to the minimum wait.
	now = base.Add(4 * time.Second)
	if d := e.RetryAfter(); d != minRetryAfter {
		t.Fatalf("fresh window: RetryAfter() = %v, want %v", d, minRetryAfter)
	}
	// Stale: same history, an hour later.
	now = base.Add(time.Hour)
	if d := e.RetryAfter(); d != defaultRetryAfter {
		t.Fatalf("stale window: RetryAfter() = %v, want default %v", d, defaultRetryAfter)
	}
}
