package service

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
)

// lru is the one cache the service has: a cost-bounded LRU of slots, each
// built at most once however many callers want it (single-flight). The
// fitted-Framework cache (cost 1 per entry, capacity in entries) and the
// model registry (cost in bytes, capacity in bytes) are both instances.
//
// Finding a slot and building its value are separate steps. reserve returns
// the key's slot, inserting an unbuilt one on a miss; resolve builds the
// slot's value, or waits for whoever is building it. A caller may hold a
// slot across the two — a queued job reserves its models at submission and
// resolves them on a worker — and eviction only unlinks a slot from the
// index: holders keep a working slot, and the next reserve of the key
// starts a fresh one.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	ll      *list.List // *slot[K, V]; front = most recently used
	entries map[K]*list.Element

	hits, misses, evictions, joins int64
	// inflight counts builds currently running; decremented outside the
	// lock when a build finishes, hence atomic.
	inflight atomic.Int64
}

// slot is one cache entry. val holds the seed reserve was given until a
// build replaces it; after ready is closed, val and err are the build's
// result and read without further synchronization.
type slot[K comparable, V any] struct {
	key   K
	cost  int64
	ready chan struct{} // nil until a builder claims the slot; guarded by lru.mu
	val   V
	err   error
}

// outcome says how a resolve was served.
type outcome int

const (
	outcomeMiss outcome = iota // this caller ran the build
	outcomeHit                 // already built
	outcomeJoin                // waited on a build in flight
)

// hit reports whether the caller was spared the build.
func (o outcome) hit() bool { return o != outcomeMiss }

// event names the outcome for trace events ("hit", "miss",
// "singleflight_join").
func (o outcome) event() string {
	switch o {
	case outcomeHit:
		return "hit"
	case outcomeJoin:
		return "singleflight_join"
	}
	return "miss"
}

func newLRU[K comparable, V any](capacity int64) *lru[K, V] {
	return &lru[K, V]{cap: capacity, ll: list.New(), entries: map[K]*list.Element{}}
}

// reserve returns the slot for key, marking it most recently used. On a
// miss it inserts an unbuilt slot holding seed at the given cost and evicts
// from the cold end until the total cost fits the capacity again — which
// unlinks the new slot itself when it alone is over capacity: the caller
// still holds it, nobody else will find it.
func (c *lru[K, V]) reserve(key K, cost int64, seed V) *slot[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*slot[K, V])
	}
	s := &slot[K, V]{key: key, cost: cost, val: seed}
	c.entries[key] = c.ll.PushFront(s)
	c.used += cost
	for c.used > c.cap && c.ll.Len() > 0 {
		c.unlink(c.ll.Back())
		c.evictions++
	}
	return s
}

// lookup returns key's slot if the cache holds one, marking it most recently
// used.
func (c *lru[K, V]) lookup(key K) (*slot[K, V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*slot[K, V]), true
}

// shrink evicts from the cold end, passing over the slots of spare, until
// the total cost is at most target or nothing else can go.
func (c *lru[K, V]) shrink(target int64, spare []K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Back(); el != nil && c.used > target; {
		prev := el.Prev()
		if !slices.Contains(spare, el.Value.(*slot[K, V]).key) {
			c.unlink(el)
			c.evictions++
		}
		el = prev
	}
}

// resolve returns s's built value. The first caller runs build on the
// slot's seed; callers arriving while it runs wait for it; later ones read
// the result. note hears the outcome as soon as it is decided — before the
// build or the wait, so a trace event lands where the time starts. A failed
// build unlinks the slot, so the error reaches everyone holding it and the
// next reserve of the key retries.
func (c *lru[K, V]) resolve(s *slot[K, V], note func(outcome), build func(seed V) (V, error)) (V, outcome, error) {
	c.mu.Lock()
	if s.ready != nil {
		c.hits++
		o := outcomeHit
		select {
		case <-s.ready:
		default:
			// Joining a build still in flight: this caller's build was
			// deduplicated, the single-flight win the cache exists for.
			c.joins++
			o = outcomeJoin
		}
		c.mu.Unlock()
		note(o)
		<-s.ready
		return s.val, o, s.err
	}
	c.misses++
	s.ready = make(chan struct{})
	c.inflight.Add(1)
	c.mu.Unlock()
	note(outcomeMiss)

	s.val, s.err = build(s.val)
	close(s.ready)
	c.inflight.Add(-1)
	if s.err != nil {
		c.remove(s)
	}
	return s.val, outcomeMiss, s.err
}

// remove unlinks s if the index still holds it (it may already have been
// evicted, or replaced after an eviction). Not counted as an eviction.
func (c *lru[K, V]) remove(s *slot[K, V]) {
	c.mu.Lock()
	if el, ok := c.entries[s.key]; ok && el.Value.(*slot[K, V]) == s {
		c.unlink(el)
	}
	c.mu.Unlock()
}

// unlink drops el from the list and the index. Caller holds c.mu.
func (c *lru[K, V]) unlink(el *list.Element) {
	s := c.ll.Remove(el).(*slot[K, V])
	delete(c.entries, s.key)
	c.used -= s.cost
}

// lruStats is a snapshot of cumulative traffic and current occupancy. hits
// counts every resolve served by a built or in-flight slot; joins is the
// subset that waited on a build in flight.
type lruStats struct {
	hits, misses, evictions, joins, inflight int64
	entries                                  int
	used, cap                                int64
}

func (c *lru[K, V]) stats() lruStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return lruStats{
		hits: c.hits, misses: c.misses, evictions: c.evictions, joins: c.joins,
		inflight: c.inflight.Load(),
		entries:  c.ll.Len(), used: c.used, cap: c.cap,
	}
}
