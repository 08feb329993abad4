package service

import (
	"errors"
	"testing"
	"time"
)

func testBreakerClock(b *fitBreaker) func(time.Duration) {
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

func TestFitBreakerTripAndRecover(t *testing.T) {
	b := newFitBreaker(3, time.Second, time.Minute)
	advance := testBreakerClock(b)
	key := CacheKey{Recommender: "L-WD", NumSamples: 10}

	// Below the threshold nothing trips.
	for i := 0; i < 2; i++ {
		if tripped, _ := b.failure(key); tripped {
			t.Fatalf("failure %d tripped below threshold", i+1)
		}
		if err := b.allow(key); err != nil {
			t.Fatalf("allow after %d failures: %v", i+1, err)
		}
	}
	// Third consecutive failure opens the key for the base window.
	tripped, window := b.failure(key)
	if !tripped || window != time.Second {
		t.Fatalf("third failure: tripped=%v window=%s, want true/1s", tripped, window)
	}
	var qerr *QuarantinedError
	if err := b.allow(key); !errors.As(err, &qerr) {
		t.Fatalf("allow inside window = %v, want *QuarantinedError", err)
	}
	if qerr.Failures != 3 || qerr.RetryAfter <= 0 {
		t.Fatalf("quarantine error = %+v", qerr)
	}
	if n := b.openKeys(); n != 1 {
		t.Fatalf("openKeys = %d, want 1", n)
	}

	// Window passes: the next caller is the half-open probe.
	advance(1100 * time.Millisecond)
	if err := b.allow(key); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	// Probe fails: reopened with the window doubled.
	if tripped, window := b.failure(key); !tripped || window != 2*time.Second {
		t.Fatalf("probe failure: tripped=%v window=%s, want true/2s", tripped, window)
	}
	advance(2100 * time.Millisecond)
	if err := b.allow(key); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	// Probe succeeds: the key is forgotten entirely.
	b.success(key)
	if tripped, _ := b.failure(key); tripped {
		t.Fatal("first failure after success tripped — consecutive count survived the close")
	}
}

func TestFitBreakerWindowCap(t *testing.T) {
	b := newFitBreaker(1, time.Second, 4*time.Second)
	advance := testBreakerClock(b)
	key := CacheKey{Recommender: "P-EX", NumSamples: 5}
	var last time.Duration
	for i := 0; i < 6; i++ {
		_, last = b.failure(key)
		advance(time.Hour) // always past the window: every failure re-trips
		if err := b.allow(key); err != nil {
			t.Fatalf("probe %d rejected: %v", i, err)
		}
	}
	if last != 4*time.Second {
		t.Fatalf("window after 6 trips = %s, want capped 4s", last)
	}
}

func TestFitBreakerKeysAreIndependent(t *testing.T) {
	b := newFitBreaker(1, time.Minute, time.Hour)
	testBreakerClock(b)
	bad := CacheKey{Recommender: "L-WD", NumSamples: 10}
	good := CacheKey{Recommender: "L-WD", NumSamples: 20}
	b.failure(bad)
	if err := b.allow(bad); err == nil {
		t.Fatal("tripped key allowed")
	}
	if err := b.allow(good); err != nil {
		t.Fatalf("untouched key rejected: %v", err)
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
