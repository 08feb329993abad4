package service

import (
	"context"

	"kgeval/internal/core"
	"kgeval/internal/obs/trace"
)

// CacheKey identifies a fitted Framework: the graph contents (via
// core.Fingerprint), the recommender, and the candidate budget n_s. Jobs
// that agree on all three share one Fit.
type CacheKey struct {
	Graph       string
	Recommender string
	NumSamples  int
}

// FrameworkCache is an LRU of fitted core.Frameworks with single-flight
// building: concurrent Get calls for the same key trigger exactly one
// build, and every other caller blocks on it (and counts as a hit, since
// the Fit cost is shared). Failed builds are evicted so later requests
// retry.
type FrameworkCache struct {
	lru *lru[CacheKey, *core.Framework]
}

// NewFrameworkCache creates a cache holding at most capacity fitted
// frameworks (minimum 1).
func NewFrameworkCache(capacity int) *FrameworkCache {
	return &FrameworkCache{lru: newLRU[CacheKey, *core.Framework](int64(max(capacity, 1)))}
}

// Get returns the framework for key, building it with build on a miss. The
// second return reports whether the call was served by an existing (possibly
// still in-flight) entry. When ctx carries a trace span, the cache outcome
// (hit, miss, or single-flight join) lands on it as an event, annotating the
// caller's trace with why it did or didn't pay the Fit cost.
func (c *FrameworkCache) Get(ctx context.Context, key CacheKey, build func() (*core.Framework, error)) (*core.Framework, bool, error) {
	fw, o, err := c.lru.resolve(c.lru.reserve(key, 1, nil),
		func(o outcome) {
			trace.FromContext(ctx).Event("cache."+o.event(), trace.String("recommender", key.Recommender))
		},
		func(*core.Framework) (*core.Framework, error) { return build() })
	return fw, o.hit(), err
}

// CacheStats reports cumulative cache traffic and current occupancy.
// Hits counts every Get served by an existing entry; SingleFlight is the
// subset of hits that joined a build still in flight (a deduplicated Fit).
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	SingleFlight int64 `json:"singleflight"`
	InFlight     int64 `json:"inflight"`
	Size         int   `json:"size"`
	Cap          int   `json:"cap"`
}

// Stats snapshots hit/miss/eviction counters and occupancy.
func (c *FrameworkCache) Stats() CacheStats {
	s := c.lru.stats()
	return CacheStats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
		SingleFlight: s.joins, InFlight: s.inflight,
		Size: s.entries, Cap: int(s.cap),
	}
}
