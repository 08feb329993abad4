package service

import (
	"fmt"
	"sync"
	"time"

	"kgeval/internal/kgc/store"
)

// completionWindow is a ring of recent job-completion timestamps, the
// throughput estimate behind Retry-After: with the queue full, the time
// until a slot frees up is queue depth over recent drain rate.
type completionWindow struct {
	mu   sync.Mutex
	ring [32]time.Time
	n    int // total notes, ring holds the last min(n, len) of them

	// now is the clock used for the staleness check; nil means time.Now.
	// Injected by tests so a stale window can be simulated without sleeping.
	now func() time.Time
}

// completionStaleness bounds how old the window's newest completion may be
// before rate() stops trusting it. A burst of completions followed by a
// quiet hour describes a drain rate the engine no longer has; extrapolating
// it would tell rejected clients to retry into a queue that isn't moving.
const completionStaleness = 5 * time.Minute

func (w *completionWindow) clock() time.Time {
	if w.now != nil {
		return w.now()
	}
	return time.Now()
}

// note records one terminal transition. Nil-safe (jobs created outside an
// engine carry no metrics).
func (w *completionWindow) note(t time.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.ring[w.n%len(w.ring)] = t
	w.n++
	w.mu.Unlock()
}

// rate returns recent completions per second, or 0 when there is not
// enough history (fewer than two completions) or the window is stale (its
// newest completion is older than completionStaleness, so the measured
// drain rate no longer describes the engine).
func (w *completionWindow) rate() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := w.n
	if k > len(w.ring) {
		k = len(w.ring)
	}
	if k < 2 {
		return 0
	}
	newest := w.ring[(w.n-1)%len(w.ring)]
	if w.clock().Sub(newest) > completionStaleness {
		return 0
	}
	oldest := w.ring[(w.n-k)%len(w.ring)]
	span := newest.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(k-1) / span.Seconds()
}

// Retry-After bounds: never tell a client to come back sooner than a
// second or later than two minutes, whatever the throughput math says.
const (
	minRetryAfter = time.Second
	maxRetryAfter = 2 * time.Minute
	// defaultRetryAfter is used when the drain rate is unknown: before any
	// job has completed, or after the completion window has gone stale.
	defaultRetryAfter = 5 * time.Second
)

// RetryAfter estimates how long a rejected submitter should wait before
// retrying: the current queue depth divided by the recent completion
// throughput, clamped to [1s, 2m]. This is the value behind the
// Retry-After header on 429 responses.
func (e *Engine) RetryAfter() time.Duration {
	rate := e.completions.rate()
	if rate <= 0 {
		return defaultRetryAfter
	}
	d := time.Duration(float64(len(e.queue)+1) / rate * float64(time.Second))
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// MemoryBudgetError reports a job whose estimated working set exceeds the
// engine's memory budget even after precision degradation, with nothing
// else resident. It is a structured, client-actionable rejection: resubmit
// with a smaller fleet, a lower dim, or a reduced precision.
type MemoryBudgetError struct {
	EstimatedBytes int64
	BudgetBytes    int64
}

func (e *MemoryBudgetError) Error() string {
	return fmt.Sprintf("service: job needs an estimated %d MiB, over the %d MiB memory budget (reduce models, dim or precision)",
		e.EstimatedBytes>>20, e.BudgetBytes>>20)
}

// modelWeightBytes approximates the float64 weight tables one model of the
// given architecture pins at the given dim. The flat-embedding models hold
// a dim-vector per entity and relation, but the structured architectures
// are dominated by very different terms: RESCAL keeps a full d×d matrix
// per relation, TuckER a shared d³ core tensor, and ConvE reciprocal
// relation rows plus a flat·d fully-connected projection (flat = 8·d for
// its fixed 4-channel 2d reshape). Modeling them all as (|E|+|R|)·d used
// to under-estimate RESCAL/TuckER by orders of magnitude at service dims —
// a TuckER at dim 512 holds a 1 GiB core that the gate waved through.
func modelWeightBytes(name string, ents, rels, dim int64) int64 {
	switch name {
	case "RESCAL":
		return (ents*dim + rels*dim*dim) * 8
	case "TuckER":
		return ((ents+rels)*dim + dim*dim*dim) * 8
	case "ConvE":
		return (ents*(dim+1) + 2*rels*dim + 8*dim*dim) * 8
	default: // TransE, DistMult, ComplEx, RotatE: flat embedding vectors
		return (ents + rels) * dim * 8
	}
}

// estimateJobBytes approximates what admitting a job adds to the process:
// per model, the entity store at the scoring precision (|E|·dim·bytes) plus,
// when the registry does not hold the model yet, the architecture-aware
// float64 weight tables loading it will pin (modelWeightBytes). A model the
// registry holds is charged there, once, however many jobs name it — keys
// are the job's registry keys; nil charges every model to the job, which is
// what the job needs with nothing else resident. A coarse upper-ish bound —
// the gate exists to refuse obviously-over-budget work before it OOMs the
// process, not to do exact accounting.
func (e *Engine) estimateJobBytes(spec JobSpec, keys []modelKey, prec store.Precision) int64 {
	precBytes := int64(8)
	switch prec {
	case store.Float32:
		precBytes = 4
	case store.Int8:
		precBytes = 1
	}
	var total int64
	ents := int64(e.graph.NumEntities)
	rels := int64(e.graph.NumRelations)
	for i, ms := range specModels(&spec) {
		dim := int64(ms.Dim)
		total += ents * dim * precBytes
		if keys == nil || !e.models.holds(keys[i]) {
			total += modelWeightBytes(ms.Name, ents, rels, dim)
		}
	}
	return total
}

// admit applies the memory-budget gate to a validated spec: the bytes the
// model registry holds plus what the job adds must fit the budget. The
// registry is a cache, so it is what gives way: a job that fits the budget
// on its own is admitted, after evicting the least recently used models
// other than its own until the sum fits — idle models never turn a job away.
// A job too large on its own at the default float64 precision degrades to
// float32 (graceful degradation — a bounded-deviation estimate beats an
// OOM-killed daemon); still (or explicitly) too large rejects with a
// *MemoryBudgetError. The returned bool reports whether precision was
// degraded.
//
// Evicting a model that queued or running jobs still hold frees nothing
// until they finish; the gate is then as lenient as it was before models
// were shared, when every job was judged on its own.
func (e *Engine) admit(spec JobSpec, keys []modelKey) (JobSpec, bool, error) {
	budget := e.cfg.MemoryBudget
	if budget <= 0 {
		return spec, false, nil
	}
	prec, _ := store.ParsePrecision(spec.Precision) // validated earlier
	// Only the implicit default is degraded: a caller who explicitly asked
	// for float64 said they need the bit-exact reference, so they get a
	// structured rejection instead of silently different numbers.
	tries := []store.Precision{prec}
	if spec.Precision == "" {
		tries = append(tries, store.Float32)
	}
	for _, p := range tries {
		if e.estimateJobBytes(spec, nil, p) > budget {
			continue
		}
		e.models.lru.Shrink(budget-e.estimateJobBytes(spec, keys, p), keys)
		if p != prec {
			spec.Precision = p.String()
		}
		return spec, p != prec, nil
	}
	return spec, false, &MemoryBudgetError{EstimatedBytes: e.estimateJobBytes(spec, nil, prec), BudgetBytes: budget}
}
