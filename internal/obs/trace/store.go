package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// SpanRecord is the immutable record of one finished span — what the
// flight recorder retains and the trace endpoints serve.
type SpanRecord struct {
	TraceID string    `json:"trace_id"`
	SpanID  string    `json:"span_id"`
	Parent  string    `json:"parent_id,omitempty"` // "" on the root span
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Events  []Event   `json:"events,omitempty"`
}

// Duration returns the span's elapsed time.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// Attr returns the value of the named attribute, or nil.
func (r SpanRecord) Attr(key string) any {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Recorder is one trace's flight recorder: a fixed-size ring of the
// trace's most recent finished span records, retained after the traced
// work completes so a job's timeline can be read back minutes later. When
// a trace produces more spans than the ring holds (a huge evaluation's
// chunk spans), the oldest records are dropped and counted — recent
// history survives, memory stays bounded.
type Recorder struct {
	traceID TraceID
	name    string
	start   time.Time

	mu    sync.Mutex
	ring  []SpanRecord
	limit int   // ring capacity; the slice grows toward it as spans arrive
	next  int   // ring insertion cursor
	wrap  bool  // ring has wrapped at least once
	total int64 // spans ever recorded
}

func newRecorder(id TraceID, name string, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	// The ring is not allocated up front: whoever retains a finished trace
	// (a retained job) holds what the trace recorded, not what it was
	// allowed to.
	return &Recorder{traceID: id, name: name, start: time.Now(), limit: capacity}
}

// TraceID returns the hex trace ID.
func (r *Recorder) TraceID() string { return r.traceID.String() }

func (r *Recorder) add(rec SpanRecord) {
	r.mu.Lock()
	if len(r.ring) < r.limit {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next] = rec
		r.next = (r.next + 1) % r.limit
		r.wrap = true
	}
	r.total++
	r.mu.Unlock()
}

// Trace is a self-contained snapshot of one trace: its recorded spans in
// chronological order plus how many older spans the ring dropped. It is
// the JSON shape of GET /v1/jobs/{id}/trace.
type Trace struct {
	TraceID string       `json:"trace_id"`
	Name    string       `json:"name"`
	Start   time.Time    `json:"start"`
	Spans   []SpanRecord `json:"spans"`
	Dropped int64        `json:"dropped_spans,omitempty"`
}

// Snapshot copies the recorder's current state. Spans still open (a
// running job's) are not yet in the ring; a snapshot taken mid-flight
// shows the spans completed so far.
func (r *Recorder) Snapshot() Trace {
	r.mu.Lock()
	t := Trace{
		TraceID: r.traceID.String(),
		Name:    r.name,
		Start:   r.start,
		Spans:   make([]SpanRecord, 0, len(r.ring)),
		Dropped: r.total - int64(len(r.ring)),
	}
	if r.wrap {
		// The cursor points at the oldest record once the ring has wrapped.
		t.Spans = append(t.Spans, r.ring[r.next:]...)
		t.Spans = append(t.Spans, r.ring[:r.next]...)
	} else {
		t.Spans = append(t.Spans, r.ring...)
	}
	r.mu.Unlock()
	sort.SliceStable(t.Spans, func(i, j int) bool { return t.Spans[i].Start.Before(t.Spans[j].Start) })
	return t
}

// Store starts traces. It keeps none of them: a root span's recorder lives
// for as long as whoever holds Span.Recorder() keeps it (in the service, the
// job index), and is dropped with it.
type Store struct {
	spanCap int
}

// defaultTraceSpans is the ring bound of a trace started by a store built
// with a non-positive spansPerTrace: enough for a large evaluation's chunk
// spans, and a ring only grows to what its trace records.
const defaultTraceSpans = 4096

// NewStore creates a store whose traces each retain at most spansPerTrace
// span records (non-positive takes the default, 4096). traces does nothing:
// the store keeps no traces. It stays in the signature for the callers that
// pass it.
func NewStore(traces, spansPerTrace int) *Store {
	if spansPerTrace < 1 {
		spansPerTrace = defaultTraceSpans
	}
	return &Store{spanCap: spansPerTrace}
}

// StartTrace begins a new trace: it makes a flight recorder and returns the
// root span together with a context carrying it, from which all child spans
// descend. A nil Store returns (ctx, nil), so tracing can be disabled by
// simply not providing a store.
func (s *Store) StartTrace(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if s == nil {
		return ctx, nil
	}
	rec := newRecorder(newTraceID(), name, s.spanCap)
	root := &Span{rec: rec, id: newSpanID(), name: name, start: rec.start}
	if len(attrs) > 0 {
		root.attrs = append([]Attr(nil), attrs...)
	}
	return ContextWith(ctx, root), root
}
