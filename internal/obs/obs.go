// Package obs is the dependency-free observability layer of the kgeval
// system: atomic counters and gauges, labeled histograms over fixed
// buckets, and a Prometheus text-format exposition writer (prometheus.go).
//
// Instruments are created through a Registry and identified by a family
// name plus an optional set of constant labels; requesting the same
// (name, labels) pair again returns the existing instrument, so hot paths
// can resolve their metrics once at init and share them freely across
// goroutines. Every mutating operation is a single atomic instruction —
// no locks on the observation path — which is what lets the eval workers
// hammer the same counters from every scoring goroutine.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant key/value pair attached to an instrument.
type Label struct {
	Key   string
	Value string
}

// DurationBuckets are the default histogram bounds for timings in seconds,
// spanning 100µs to 30s — wide enough for both a single batch task and a
// full-protocol evaluation pass.
var DurationBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay Prometheus-legal).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (CAS loop; safe for concurrent use).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are ascending
// upper limits; an implicit +Inf bucket catches the overflow. Buckets hold
// plain (non-cumulative) counts; the exposition writer emits the cumulative
// form Prometheus expects.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
	// exemplar is the most recent trace-linked observation; exposed in the
	// exposition with OpenMetrics `# {trace_id="..."}` syntax so a
	// histogram's tail can be chased to the trace that produced it.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar links one histogram observation to the trace it came from.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (tens); a linear scan beats binary search on branch
	// prediction and is free next to the atomic add.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records v and stores (v, traceID, now) as the
// histogram's exemplar. An empty traceID observes without touching the
// exemplar, so call sites need not branch on whether tracing was active.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.exemplar.Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// LastExemplar returns the most recent trace-linked observation, or nil.
func (h *Histogram) LastExemplar() *Exemplar {
	if h == nil {
		return nil
	}
	return h.exemplar.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per-bucket; last entry is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Under concurrent
// observation the copy is not a single atomic cut, but every completed
// Observe is eventually reflected exactly once.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// --- registry ---

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() int64
	gf     func() float64
}

type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64
	series map[string]*series // keyed by canonical label signature
}

// Registry holds metric families and hands out instruments. The zero
// value is not usable; create registries with NewRegistry. Instrument
// creation takes a lock, observation never does.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry. Library packages (internal/eval)
// register their instruments here; servers expose it alongside their own
// registries via Handler.
var Default = NewRegistry()

// canonLabels sorts labels by key and returns the canonical signature.
func canonLabels(labels []Label) ([]Label, string) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return ls, b.String()
}

// lookup finds or creates the series for (name, labels), enforcing one
// kind per family. New series are materialized by init while the registry
// lock is held, so concurrent first requests resolve to one instrument.
// A kind clash is a programming error and panics.
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []Label, init func(s *series, f *family)) *series {
	ls, sig := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: append([]float64(nil), bounds...), series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, k))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: ls}
		init(s, f)
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, nil, labels, func(s *series, _ *family) { s.c = &Counter{} })
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for counts maintained elsewhere (cache hit totals).
// The first registration for a (name, labels) pair wins.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.lookup(name, help, kindCounter, nil, labels, func(s *series, _ *family) { s.cf = fn })
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, nil, labels, func(s *series, _ *family) { s.g = &Gauge{} })
	return s.g
}

// GaugeFunc registers a gauge read from fn at exposition time — for
// instantaneous values owned elsewhere (queue depth, cache occupancy).
// The first registration for a (name, labels) pair wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, kindGauge, nil, labels, func(s *series, _ *family) { s.gf = fn })
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds on first use. Later series of the same family
// reuse the family's original bounds — mergeability requires one bound
// set per family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, bounds, labels, func(s *series, f *family) { s.h = newHistogram(f.bounds) })
	return s.h
}
