package service

import (
	"fmt"
	"slices"
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
// engine's memory budget with nothing else resident. It is a structured,
// client-actionable rejection: resubmit with a smaller fleet or a lower dim.
type MemoryBudgetError struct {
	EstimatedBytes int64
	BudgetBytes    int64
}

func (e *MemoryBudgetError) Error() string {
	return fmt.Sprintf("service: job needs an estimated %d bytes, over the %d-byte memory budget (reduce models or dim)",
		e.EstimatedBytes, e.BudgetBytes)
}

// estimateJobBytes counts, from bytes the engine can see, what admitting a
// job adds to what the registry holds (adds) and what the job needs with
// nothing else resident (alone). keys are the job's registry keys. A key a
// fleet names twice is one registry slot and one loaded model, so it is
// charged once. Per model:
//
//   - a model the registry holds adds nothing, being charged there once
//     however many jobs name it, and counts its slot's charge alone;
//   - an inline snapshot the registry does not hold costs its length, which
//     is what the registry charges once it is registered;
//   - a model_id the registry does not know costs nothing: the job is
//     refused with ErrUnknownModel right after admission;
//   - at float32 and int8, the entity store the scorer builds at that
//     precision costs what store.FromRows allocates for it. A float64 store
//     is a view of the weights the registry already charges.
func (e *Engine) estimateJobBytes(spec JobSpec, keys []modelKey, prec store.Precision) (adds, alone int64) {
	for i, ms := range specModels(&spec) {
		if slices.Contains(keys[:i], keys[i]) {
			continue
		}
		model := int64(len(ms.Snapshot))
		if slot, held := e.models.lru.Lookup(keys[i]); held {
			model = slot.Cost()
		} else {
			adds += model
		}
		st := store.CopyBytes(e.graph.NumEntities, ms.Dim, prec)
		adds += st
		alone += model + st
	}
	return adds, alone
}

// admit applies the memory-budget gate to a validated spec: the bytes the
// model registry holds plus what the job adds must fit the budget. The
// registry is a cache, so it is what gives way: a job that fits the budget
// on its own is admitted, after evicting the least recently used models
// other than its own until the sum fits — idle models never turn a job away.
// A job too large on its own is refused with a *MemoryBudgetError, at any
// precision: none costs less than float64.
//
// Evicting a model that queued or running jobs still hold frees nothing
// until they finish; the gate is then as lenient as it was before models
// were shared, when every job was judged on its own.
func (e *Engine) admit(spec JobSpec, keys []modelKey, prec store.Precision) error {
	budget := e.cfg.MemoryBudget
	if budget <= 0 {
		return nil
	}
	adds, alone := e.estimateJobBytes(spec, keys, prec)
	if alone > budget {
		return &MemoryBudgetError{EstimatedBytes: alone, BudgetBytes: budget}
	}
	e.models.lru.Shrink(budget-adds, keys)
	return nil
}
