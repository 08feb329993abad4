package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// StartSpan starts a child of the context's span and returns a context
// carrying it; without a span in ctx it returns (ctx, nil).
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.Child(name, attrs...)
	return ContextWith(ctx, c), c
}

func TestSpanTreeParentage(t *testing.T) {
	store := NewStore(0, 64)
	ctx, root := store.StartTrace(context.Background(), "request", String("method", "POST"))
	if root == nil {
		t.Fatal("StartTrace returned nil root")
	}
	if root.TraceID() == "" {
		t.Fatal("root has no trace ID")
	}

	ctx2, job := StartSpan(ctx, "job", String("id", "j1"))
	if job == nil {
		t.Fatal("StartSpan under a traced context returned nil")
	}
	if FromContext(ctx2) != job {
		t.Fatal("returned context does not carry the child span")
	}
	_, queue := StartSpan(ctx2, "queue-wait")
	queue.End()
	job.Event("cache.hit", String("key", "k"))
	job.ChildRecord("chunk", time.Now().Add(-time.Millisecond), time.Now(), Int("relation", 7))
	job.End(String("state", "succeeded"))
	root.End()

	tr := root.Recorder().Snapshot()
	if tr.TraceID != root.TraceID() || tr.Name != "request" {
		t.Fatalf("snapshot is trace %s %q, want %s \"request\"", tr.TraceID, tr.Name, root.TraceID())
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(tr.Spans), tr.Spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range tr.Spans {
		if s.TraceID != root.TraceID() {
			t.Fatalf("span %s carries trace %s, want %s", s.Name, s.TraceID, root.TraceID())
		}
		byName[s.Name] = s
	}
	rootRec := byName["request"]
	if rootRec.Parent != "" {
		t.Fatalf("root has parent %q", rootRec.Parent)
	}
	if byName["job"].Parent != rootRec.SpanID {
		t.Fatal("job is not a child of request")
	}
	if byName["queue-wait"].Parent != byName["job"].SpanID {
		t.Fatal("queue-wait is not a child of job")
	}
	if byName["chunk"].Parent != byName["job"].SpanID {
		t.Fatal("chunk record is not a child of job")
	}
	if v, ok := byName["chunk"].Attr("relation").(int); !ok || v != 7 {
		t.Fatalf("chunk relation attr = %v", byName["chunk"].Attr("relation"))
	}
	if len(byName["job"].Events) != 1 || byName["job"].Events[0].Name != "cache.hit" {
		t.Fatalf("job events = %+v", byName["job"].Events)
	}
	if got := byName["job"].Attr("state"); got != "succeeded" {
		t.Fatalf("End attrs not recorded: state = %v", got)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttrs(String("k", "v"))
	s.Event("e")
	s.ChildRecord("c", time.Now(), time.Now())
	s.End()
	if s.Child("c") != nil {
		t.Fatal("nil span produced a live child")
	}
	if s.TraceID() != "" {
		t.Fatal("nil span has a trace ID")
	}
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil || FromContext(ctx) != nil {
		t.Fatal("StartSpan without a trace in context must be a no-op")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) must return nil")
	}
	var store *Store
	if _, root := store.StartTrace(context.Background(), "x"); root != nil {
		t.Fatal("nil store produced a root span")
	}
}

// TestRecorderRingEviction fills a small flight recorder past capacity and
// checks that only the most recent records survive, with the overflow
// counted in Dropped.
func TestRecorderRingEviction(t *testing.T) {
	store := NewStore(0, 8)
	_, root := store.StartTrace(context.Background(), "big")
	for i := 0; i < 20; i++ {
		t0 := time.Unix(0, int64(i)*int64(time.Millisecond))
		root.ChildRecord(fmt.Sprintf("chunk-%02d", i), t0, t0.Add(time.Millisecond))
	}
	root.End()

	tr := root.Recorder().Snapshot()
	if len(tr.Spans) != 8 {
		t.Fatalf("ring retained %d spans, want 8", len(tr.Spans))
	}
	if tr.Dropped != 13 { // 20 chunks + 1 root - 8 retained
		t.Fatalf("Dropped = %d, want 13", tr.Dropped)
	}
	// The survivors must be the newest chunk records (and the root, which
	// ended last); chronological order by start.
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].Start.Before(tr.Spans[i-1].Start) {
			t.Fatalf("spans not chronological at %d: %v after %v", i, tr.Spans[i].Start, tr.Spans[i-1].Start)
		}
	}
	if tr.Spans[0].Name != "chunk-13" {
		t.Fatalf("oldest retained span = %s, want chunk-13", tr.Spans[0].Name)
	}
}

// TestRecorderRingGrowsOnDemand: a trace's ring is a bound, not an
// allocation. A retained recorder (behind a finished job's span) must cost
// what it recorded — a default-sized ring allocated up front
// pinned ~0.65 MB per finished job in the service's job index.
func TestRecorderRingGrowsOnDemand(t *testing.T) {
	store := NewStore(0, defaultTraceSpans)
	_, root := store.StartTrace(context.Background(), "small")
	root.Child("only").End()
	root.End()
	rec := root.Recorder()
	if n := len(rec.Snapshot().Spans); n != 2 {
		t.Fatalf("recorded %d spans, want 2", n)
	}
	rec.mu.Lock()
	held := cap(rec.ring)
	rec.mu.Unlock()
	if held > 16 {
		t.Fatalf("two-span trace holds a %d-record ring", held)
	}
}

// TestConcurrentSpanHammer creates spans, events and chunk records from
// many goroutines against one trace while snapshots are taken — the -race
// gate on the recorder's synchronization.
func TestConcurrentSpanHammer(t *testing.T) {
	store := NewStore(0, 512)
	ctx, root := store.StartTrace(context.Background(), "hammer")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, s := StartSpan(ctx, fmt.Sprintf("w%d-%d", w, i), Int("i", i))
				s.Event("tick")
				s.ChildRecord("chunk", time.Now(), time.Now(), Int("w", w))
				s.End(Int("done", i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = root.Recorder().Snapshot()
		}
	}()
	wg.Wait()
	<-done
	root.End()

	tr := root.Recorder().Snapshot()
	if got, want := int64(len(tr.Spans))+tr.Dropped, int64(workers*50*2+1); got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
}

func TestChromeExport(t *testing.T) {
	store := NewStore(0, 64)
	_, root := store.StartTrace(context.Background(), "req")
	base := time.Now()
	// Two overlapping children must land on different lanes; a third that
	// starts after the first ends may reuse lane 0's successor slots.
	root.ChildRecord("a", base, base.Add(10*time.Millisecond))
	root.ChildRecord("b", base.Add(2*time.Millisecond), base.Add(8*time.Millisecond), Int("pool", 100))
	root.ChildRecord("c", base.Add(12*time.Millisecond), base.Add(14*time.Millisecond))
	root.End()

	ct := root.Recorder().Snapshot().Chrome()
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("DisplayTimeUnit = %q", ct.DisplayTimeUnit)
	}
	byName := map[string]ChromeEvent{}
	for _, ev := range ct.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		byName[ev.Name] = ev
		if ev.Dur < 0 {
			t.Fatalf("event %s has negative duration", ev.Name)
		}
	}
	if len(byName) != 4 {
		t.Fatalf("got %d complete events, want 4", len(byName))
	}
	if byName["a"].TID == byName["b"].TID {
		t.Fatal("overlapping spans a and b share a lane")
	}
	if byName["b"].Args["pool"] != 100 {
		t.Fatalf("attrs not exported: %v", byName["b"].Args)
	}
	if byName["a"].TS > byName["b"].TS || byName["b"].TS > byName["c"].TS {
		t.Fatal("timestamps not monotone with span starts")
	}
}

// TestIDSeedDivergesOnEqualClocks regresses the cross-process ID collision
// bug: two processes whose init-time UnixNano readings coincide (coarse
// clocks, VM snapshot restores, replicas booting in lockstep) used to seed
// identical splitmix64 streams and then emit identical trace/span IDs for
// the lifetime of both processes. idSeed must separate such processes via
// its non-clock entropy, and the resulting streams must stay disjoint.
func TestIDSeedDivergesOnEqualClocks(t *testing.T) {
	const wallNS int64 = 1700000000_000000000 // both "processes" read this clock
	seedA := idSeed(wallNS)
	seedB := idSeed(wallNS)
	if seedA == seedB {
		// Same PID here, so divergence can only come from crypto/rand —
		// which is exactly what distinguishes restored VM twins too.
		t.Fatalf("idSeed produced identical seeds %#x for identical clock readings", seedA)
	}

	// Walk both ID streams the way randU64 does and require full disjoint-
	// ness: equal-seed streams would collide on every single draw, so any
	// overlap at all means the seeds failed to decorrelate the sequences.
	const draws = 1 << 14
	next := func(state *uint64) uint64 {
		*state += 0x9e3779b97f4a7c15
		return mix64(*state)
	}
	seen := make(map[uint64]bool, draws)
	for i := 0; i < draws; i++ {
		seen[next(&seedA)] = true
	}
	for i := 0; i < draws; i++ {
		if v := next(&seedB); seen[v] {
			t.Fatalf("ID streams from equal clock readings collide on %#x at draw %d", v, i)
		}
	}
}

func TestIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := newSpanID().String()
		if seen[id] {
			t.Fatalf("duplicate span ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
	if newTraceID() == (TraceID{}) {
		t.Fatal("fresh trace ID is zero")
	}
	if (SpanID{}).String() != "" {
		t.Fatal("zero span ID must render empty (root parent)")
	}
}
