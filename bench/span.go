package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the program itself carries no benchmark spans). Spans of one op share
// Op; Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartUS/EndUS are microseconds since the recorder's epoch.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// SelfUS is the duration minus the part of the interval child spans
	// cover; filled in when the trace is written out.
	SelfUS float64 `json:"self_us"`
	// Count is the work done inside the span where the layer reports it
	// (candidates scored), else 0.
	Count int64 `json:"count,omitempty"`
}

// recorder keeps spans in memory and writes them out only at exit. A nil
// *recorder records nothing, so untraced rounds run the same code with the
// recorder absent.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) us(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: r.us(now)})
	return id
}

// end closes the span, attaching the work count the layer reported.
func (r *recorder) end(id int, count int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].EndUS = r.us(now)
	r.spans[id-1].Count = count
	r.mu.Unlock()
}

// add records a span whose interval is known after the fact — the service
// phases reconstructed from a job's returned Status.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartUS: r.us(start), EndUS: r.us(end)})
	return id
}

// finish computes every span's self time and returns the spans.
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].StartUS < r.spans[kids[b]].StartUS })
		// Union of the child intervals, clipped to the parent.
		covered, hi := 0.0, s.StartUS
		for _, k := range kids {
			lo, end := r.spans[k].StartUS, r.spans[k].EndUS
			if lo < hi {
				lo = hi
			}
			if end > s.EndUS {
				end = s.EndUS
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.SelfUS = (s.EndUS - s.StartUS) - covered
	}
	return r.spans
}

// spanTotals sums duration and self time per span name.
type spanTotals struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func totalsByName(spans []span) []spanTotals {
	idx := map[string]int{}
	var out []spanTotals
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanTotals{Name: s.Name})
		}
		out[i].Spans++
		out[i].TotalMS += (s.EndUS - s.StartUS) / 1000
		out[i].SelfMS += s.SelfUS / 1000
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// traceFile is the layout of bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	ByName   []spanTotals `json:"by_name"`
	Spans    []span       `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	buf, err := json.Marshal(traceFile{Workload: workload, Seed: seed, ByName: totalsByName(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
