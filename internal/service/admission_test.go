package service

import (
	"testing"
	"time"

	"kgeval/internal/kgc/store"
)

// TestEstimateJobBytesCountsWhatItCanSee pins the memory gate to bytes the
// engine can count. An inline model the registry does not hold costs its
// snapshot's length, which is what the registry charges once it holds it; a
// float32 or int8 job adds the entity store store.FromRows allocates at that
// precision, and a float64 job nothing, its store being the weights. Once
// the model is resident a job adds only its store, and alone still needs
// the model's slot. No precision is cheaper than float64.
func TestEstimateJobBytesCountsWhatItCanSee(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const dim = 32
	snap := snapshotModel(t, g, "DistMult", dim, 1)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: dim, Seed: 1, Snapshot: snap}}
	keys := modelKeys(&spec)
	model := int64(len(snap))
	stores := map[store.Precision]int64{
		store.Float64: 0,
		store.Float32: int64(g.NumEntities) * dim * 4,
		store.Int8:    store.CopyBytes(g.NumEntities, dim, store.Int8),
	}
	check := func(when string, p store.Precision, wantAdds, wantAlone int64) {
		t.Helper()
		if adds, alone := e.estimateJobBytes(spec, keys, p); adds != wantAdds || alone != wantAlone {
			t.Errorf("%s, %s: estimate adds %d and needs %d alone, want %d and %d", when, p, adds, alone, wantAdds, wantAlone)
		}
	}
	for p, st := range stores {
		check("not registered", p, model+st, model+st)
	}
	if _, err := e.referenceModels(&spec, keys); err != nil {
		t.Fatal(err)
	}
	for p, st := range stores {
		check("resident", p, st, model+st)
	}
	// A model_id the registry does not know costs nothing: Submit refuses
	// the job with ErrUnknownModel right after admission.
	unknown := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: dim, Seed: 2, ModelID: modelDigest(snap)}}
	if adds, alone := e.estimateJobBytes(unknown, modelKeys(&unknown), store.Float64); adds != 0 || alone != 0 {
		t.Errorf("unknown model_id: estimate adds %d and needs %d alone, want 0 and 0", adds, alone)
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

func TestCompletionWindowRate(t *testing.T) {
	base := time.Unix(2000, 0)
	// Pin the staleness clock just past the synthetic timestamps so the
	// test exercises the rate math, not the staleness horizon.
	w := &completionWindow{now: func() time.Time { return base.Add(time.Second) }}
	if r := w.rate(); r != 0 {
		t.Fatalf("empty window rate = %v", r)
	}
	w.note(base)
	if r := w.rate(); r != 0 {
		t.Fatalf("single-completion rate = %v", r)
	}
	// 4 more completions, one per 100ms: 5 samples over 400ms = 10/s.
	for i := 1; i <= 4; i++ {
		w.note(base.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	if r := w.rate(); r < 9.9 || r > 10.1 {
		t.Fatalf("rate = %v, want ~10/s", r)
	}
	// Nil windows (jobs outside an engine) are silently ignored.
	var nilW *completionWindow
	nilW.note(base)
}

func TestEngineRetryAfterBounds(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// No history: the default.
	if d := e.RetryAfter(); d != defaultRetryAfter {
		t.Fatalf("RetryAfter with no history = %s, want %s", d, defaultRetryAfter)
	}
	// Fast drain: clamped up to the minimum. The synthetic timestamps need
	// a matching clock or the staleness horizon would discard them.
	base := time.Unix(3000, 0)
	e.completions.now = func() time.Time { return base.Add(time.Millisecond) }
	for i := 0; i < 32; i++ {
		e.completions.note(base.Add(time.Duration(i) * time.Microsecond))
	}
	if d := e.RetryAfter(); d != minRetryAfter {
		t.Fatalf("RetryAfter under fast drain = %s, want clamped %s", d, minRetryAfter)
	}
	// Glacial drain: clamped down to the maximum.
	e.completions = &completionWindow{now: func() time.Time { return base.Add(time.Hour) }}
	e.completions.note(base)
	e.completions.note(base.Add(time.Hour))
	if d := e.RetryAfter(); d != maxRetryAfter {
		t.Fatalf("RetryAfter under glacial drain = %s, want clamped %s", d, maxRetryAfter)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1200 * time.Millisecond, "2"},
		{2 * time.Minute, "120"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%s) = %q, want %q", tc.d, got, tc.want)
		}
	}
}
