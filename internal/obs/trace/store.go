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
	// (the store, a retained job) holds what the trace recorded, not what it
	// was allowed to.
	return &Recorder{traceID: id, name: name, start: time.Now(), limit: capacity}
}

// TraceID returns the hex trace ID.
func (r *Recorder) TraceID() string { return r.traceID.String() }

// Name returns the root span's name.
func (r *Recorder) Name() string { return r.name }

// Start returns the trace's creation time.
func (r *Recorder) Start() time.Time { return r.start }

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

// SpanCount returns how many spans the recorder currently retains and how
// many it has recorded in total.
func (r *Recorder) SpanCount() (retained int, total int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring), r.total
}

// Store holds the flight recorders of recent traces, bounded FIFO: when
// full, starting a new trace evicts the oldest. One Store serves a whole
// process (the engine owns one); lookups are by hex trace ID.
type Store struct {
	mu       sync.Mutex
	capacity int
	spanCap  int
	order    []*Recorder // oldest first
	byID     map[TraceID]*Recorder
}

// Default store bounds: enough history for a busy daemon's recent jobs
// without unbounded growth (256 traces × 4096 span records ≈ tens of MB
// worst case, typically far less).
const (
	defaultStoreTraces = 256
	defaultTraceSpans  = 4096
)

// NewStore creates a store retaining at most traces flight recorders of
// spansPerTrace records each (non-positive values take the defaults).
func NewStore(traces, spansPerTrace int) *Store {
	if traces < 1 {
		traces = defaultStoreTraces
	}
	if spansPerTrace < 1 {
		spansPerTrace = defaultTraceSpans
	}
	return &Store{capacity: traces, spanCap: spansPerTrace, byID: map[TraceID]*Recorder{}}
}

// StartTrace begins a new trace: it registers a flight recorder (evicting
// the oldest when full) and returns the root span together with a context
// carrying it, from which all child spans descend. A nil Store returns
// (ctx, nil), so tracing can be disabled by simply not providing a store.
func (s *Store) StartTrace(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if s == nil {
		return ctx, nil
	}
	id := newTraceID()
	rec := newRecorder(id, name, s.spanCap)
	s.mu.Lock()
	s.order = append(s.order, rec)
	s.byID[id] = rec
	for len(s.order) > s.capacity {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.byID, old.traceID)
	}
	s.mu.Unlock()

	root := &Span{rec: rec, id: newSpanID(), name: name, start: rec.start}
	if len(attrs) > 0 {
		root.attrs = append([]Attr(nil), attrs...)
	}
	return ContextWith(ctx, root), root
}

// Remove drops a recorder from the store, freeing its slot. It exists for
// work that registered a root trace and was then rejected before doing
// anything (a queue-full submission): keeping such traces would let a
// burst of rejections — exactly when the system is overloaded and the
// retained history matters most — evict the flight recorders of real
// completed jobs. Removing an unknown or nil recorder is a no-op.
func (s *Store) Remove(rec *Recorder) {
	if s == nil || rec == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[rec.traceID]; !ok {
		return
	}
	delete(s.byID, rec.traceID)
	for i, r := range s.order {
		if r == rec {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Get returns the flight recorder for a hex trace ID.
func (s *Store) Get(id string) (*Recorder, bool) {
	if s == nil {
		return nil, false
	}
	var tid TraceID
	if len(id) != 2*len(tid) {
		return nil, false
	}
	for i := 0; i < len(tid); i++ {
		hi, ok1 := unhex(id[2*i])
		lo, ok2 := unhex(id[2*i+1])
		if !ok1 || !ok2 {
			return nil, false
		}
		tid[i] = hi<<4 | lo
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byID[tid]
	return r, ok
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Traces returns the retained flight recorders, newest first.
func (s *Store) Traces() []*Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Recorder, len(s.order))
	for i, r := range s.order {
		out[len(s.order)-1-i] = r
	}
	return out
}
