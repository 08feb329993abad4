// Package trace is the dependency-free distributed-tracing layer of kgeval:
// trace/span identifiers, parent links, attributes and events, propagated
// through context.Context, with every finished span recorded into its
// trace's bounded in-memory flight recorder (store.go). The recorder belongs
// to whoever holds the root span — the service keeps a job's with the job —
// so a trace can be read back over HTTP for as long as that holder lives.
//
// The obs package answers fleet-wide questions ("what is the p99 queue
// wait?"); this package answers per-request ones ("why was *this* job
// slow?") — which relation chunk stalled, whether the milliseconds went to
// pool draw or kernel, how long the job sat in the queue. The two are
// linked: obs histograms carry exemplar trace IDs pointing at the trace
// that produced a given observation.
//
// Tracing is designed to stay on in production:
//
//   - a Span is only created when a recorder is present in the context;
//     every method is nil-receiver safe, so untraced call paths execute a
//     single pointer comparison and no allocation;
//   - hot loops record completed children in one call (Span.ChildRecord)
//     with caller-measured timestamps, instead of holding a live span per
//     iteration;
//   - recorders are fixed-size rings — a trace with more spans than the
//     ring drops the oldest and counts them, never grows.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace: a request's whole span tree.
type TraceID [16]byte

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String returns the 16-digit lowercase hex form, or "" for the zero ID
// (the root span's parent).
func (s SpanID) String() string {
	if s == (SpanID{}) {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// idState drives ID generation: a splitmix64 sequence over an atomic
// counter. Lock-free and fast enough for per-chunk span creation; IDs are
// unique within a process, which is all in-process lookups require — but
// exemplar trace IDs also leave the process (metrics exemplars, log
// lines, cross-service correlation), so the seed must differ between
// processes too. Seeding from the wall clock alone does not guarantee
// that: replicas started by the same supervisor can observe the same
// UnixNano (coarse clocks, VM snapshot restores, containers booting in
// lockstep), and two splitmix64 streams from equal seeds are identical
// forever. idSeed therefore folds in the PID and, when available, true
// randomness from the OS.
var idState atomic.Uint64

func init() {
	idState.Store(idSeed(time.Now().UnixNano()))
}

// idSeed derives the ID-stream seed for a process observing the given
// wall-clock reading. Entropy sources are mixed through splitmix64 stages
// (via mix64) rather than XORed raw, so two processes whose sources differ
// in only a few bits still start statistically unrelated streams. If the
// OS entropy read fails (it practically cannot), the PID and clock alone
// still separate concurrently running processes.
func idSeed(wallNS int64) uint64 {
	seed := mix64(uint64(wallNS))
	seed = mix64(seed ^ uint64(os.Getpid()))
	var buf [8]byte
	if _, err := cryptorand.Read(buf[:]); err == nil {
		seed = mix64(seed ^ binary.LittleEndian.Uint64(buf[:]))
	}
	return seed
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// randU64 returns the next pseudo-random 64-bit value (splitmix64).
func randU64() uint64 {
	return mix64(idState.Add(0x9e3779b97f4a7c15))
}

func newTraceID() TraceID {
	var t TraceID
	a, b := randU64(), randU64()
	for i := 0; i < 8; i++ {
		t[i] = byte(a >> (8 * i))
		t[8+i] = byte(b >> (8 * i))
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	a := randU64()
	for i := 0; i < 8; i++ {
		s[i] = byte(a >> (8 * i))
	}
	return s
}

// Attr is one key/value annotation on a span or event. Values are kept as
// any so integer attributes (pool sizes, tile widths) survive JSON round
// trips as numbers.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Event is a timestamped point annotation on a span (a cache hit, a
// single-flight join) — cheaper than a child span when there is no
// duration to measure.
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one in-flight timed operation of a trace. Spans are created from
// a parent (Child) or as a trace root (Store.StartTrace), carry
// attributes and events, and on End append their immutable record to the
// trace's flight recorder.
//
// A nil *Span is the valid "not traced" span: every method no-ops, so call
// sites never branch on whether tracing is active.
type Span struct {
	rec    *Recorder
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	ended  bool
}

// TraceID returns the hex trace ID, or "" on the nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID()
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event records a point-in-time annotation on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := Event{Time: time.Now(), Name: name}
	if len(attrs) > 0 {
		ev.Attrs = append([]Attr(nil), attrs...)
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Child starts a live child span. The child shares the trace's recorder;
// it must be ended with End to appear in the trace.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{rec: s.rec, id: newSpanID(), parent: s.id, name: name, start: time.Now()}
	if len(attrs) > 0 {
		c.attrs = append([]Attr(nil), attrs...)
	}
	return c
}

// ChildRecord records an already-completed child span in one call — the
// hot-path form used for per-relation-chunk spans, where the caller
// measured start/end itself and holding a live span per chunk would cost a
// mutex field and two allocations each.
func (s *Span) ChildRecord(name string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	r := SpanRecord{
		TraceID: s.rec.TraceID(),
		SpanID:  newSpanID().String(),
		Parent:  s.id.String(),
		Name:    name,
		Start:   start,
		End:     end,
	}
	if len(attrs) > 0 {
		r.Attrs = append([]Attr(nil), attrs...)
	}
	s.rec.add(r)
}

// End finishes the span, appending any final attributes, and commits its
// record to the trace's flight recorder. Ending twice records once.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.attrs = append(s.attrs, attrs...)
	r := SpanRecord{
		TraceID: s.rec.TraceID(),
		SpanID:  s.id.String(),
		Parent:  s.parent.String(),
		Name:    s.name,
		Start:   s.start,
		End:     end,
		Attrs:   s.attrs,
		Events:  s.events,
	}
	s.mu.Unlock()
	s.rec.add(r)
}

// Recorder returns the flight recorder the span records into, or nil.
func (s *Span) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

type ctxKey struct{}

// ContextWith returns ctx carrying the span; children started from the
// returned context parent under it.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil (including for a nil
// ctx — callers holding an optional context need not guard).
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
