// Package lru is the one cache in the tree: a cost-bounded LRU of slots,
// each built at most once however many callers want it (single-flight). The
// service's fitted-Framework cache (cost 1 per entry, capacity in entries),
// its model registry (cost and capacity in bytes) and a fitted Framework's
// pool memo (eval.PoolMemo, bytes of pool ids) are all instances.
//
// Finding a slot and building its value are separate steps. Reserve returns
// the key's slot, inserting an unbuilt one on a miss; Resolve builds the
// slot's value, or waits for whoever is building it. A caller may hold a
// slot across the two — a queued job reserves its models at submission and
// resolves them on a worker — and eviction only unlinks a slot from the
// index: holders keep a working slot, and the next Reserve of the key
// starts a fresh one.
package lru

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Cache is a cost-bounded, single-flight LRU from K to V.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	ll      *list.List // *Slot[K, V]; front = most recently used
	entries map[K]*list.Element

	hits, misses, evictions, joins int64
	// inflight counts builds currently running; decremented outside the
	// lock when a build finishes, hence atomic.
	inflight atomic.Int64
}

// Slot is one cache entry. val holds the seed Reserve was given until a
// build replaces it; after ready is closed, val and err are the build's
// result and read without further synchronization.
type Slot[K comparable, V any] struct {
	key   K
	cost  int64
	ready chan struct{} // nil until a builder claims the slot; guarded by Cache.mu
	val   V
	err   error
}

// Key returns the key the slot was reserved under.
func (s *Slot[K, V]) Key() K { return s.key }

// Cost returns what the slot charges the capacity while the cache holds it.
func (s *Slot[K, V]) Cost() int64 { return s.cost }

// Outcome says how a Resolve was served.
type Outcome int

const (
	Miss Outcome = iota // this caller ran the build
	Hit                 // already built
	Join                // waited on a build in flight
)

// String names the outcome for trace events: "hit", "miss" or
// "singleflight_join".
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Join:
		return "singleflight_join"
	}
	return "miss"
}

// PanicError is the error a build that panicked leaves in its slot: the
// value it panicked with and the stack at the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panicked: %v\n\n%s", e.Value, e.Stack) }

// New returns an empty cache whose entries may cost capacity in all.
func New[K comparable, V any](capacity int64) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), entries: map[K]*list.Element{}}
}

// Reserve returns the slot for key, marking it most recently used. On a
// miss it inserts an unbuilt slot holding seed at the given cost and evicts
// from the cold end until the total cost fits the capacity again. A slot
// that alone costs more than the capacity is never filed, so it evicts
// nothing: it counts as one eviction, and the caller holds the only
// reference.
func (c *Cache[K, V]) Reserve(key K, cost int64, seed V) *Slot[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*Slot[K, V])
	}
	s := &Slot[K, V]{key: key, cost: cost, val: seed}
	if cost > c.cap {
		c.evictions++
		return s
	}
	c.entries[key] = c.ll.PushFront(s)
	c.used += cost
	for c.used > c.cap { // ends with s still in: s alone fits
		c.unlink(c.ll.Back())
		c.evictions++
	}
	return s
}

// Lookup returns key's slot if the cache holds one, marking it most recently
// used.
func (c *Cache[K, V]) Lookup(key K) (*Slot[K, V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*Slot[K, V]), true
}

// Shrink evicts from the cold end, passing over the slots of spare, until
// the total cost is at most target or nothing else can go.
func (c *Cache[K, V]) Shrink(target int64, spare []K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Back(); el != nil && c.used > target; {
		prev := el.Prev()
		if !slices.Contains(spare, el.Value.(*Slot[K, V]).key) {
			c.unlink(el)
			c.evictions++
		}
		el = prev
	}
}

// Resolve returns s's built value. The first caller runs build on the
// slot's seed; callers arriving while it runs wait for it; later ones read
// the result. note, if not nil, hears the outcome as soon as it is decided —
// before the build or the wait, so a trace event lands where the time
// starts. A failed build unlinks the slot, so the error reaches everyone
// holding it and the next Reserve of the key retries. A build that panics
// fails the same way, with a *PanicError.
func (c *Cache[K, V]) Resolve(s *Slot[K, V], note func(Outcome), build func(seed V) (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	o := Miss
	if s.ready != nil {
		c.hits++
		o = Hit
		select {
		case <-s.ready:
		default:
			// Joining a build still in flight: this caller's build was
			// deduplicated, the single-flight win the cache exists for.
			c.joins++
			o = Join
		}
	} else {
		c.misses++
		s.ready = make(chan struct{})
		c.inflight.Add(1)
	}
	c.mu.Unlock()
	if note != nil {
		note(o)
	}
	if o == Miss {
		c.build(s, build)
	}
	<-s.ready
	return s.val, o, s.err
}

// build runs the slot's build and publishes its result, a panic included. A
// failed slot is unlinked before its waiters wake, so none of them can
// reserve it again.
func (c *Cache[K, V]) build(s *Slot[K, V], build func(seed V) (V, error)) {
	defer func() {
		if p := recover(); p != nil {
			s.err = &PanicError{Value: p, Stack: debug.Stack()}
		}
		c.inflight.Add(-1)
		if s.err != nil {
			c.remove(s)
		}
		close(s.ready)
	}()
	s.val, s.err = build(s.val)
}

// remove unlinks s if the index still holds it (it may already have been
// evicted, or replaced after an eviction). Not counted as an eviction.
func (c *Cache[K, V]) remove(s *Slot[K, V]) {
	c.mu.Lock()
	if el, ok := c.entries[s.key]; ok && el.Value.(*Slot[K, V]) == s {
		c.unlink(el)
	}
	c.mu.Unlock()
}

// unlink drops el from the list and the index. Caller holds c.mu.
func (c *Cache[K, V]) unlink(el *list.Element) {
	s := c.ll.Remove(el).(*Slot[K, V])
	delete(c.entries, s.key)
	c.used -= s.cost
}

// Stats is a snapshot of cumulative traffic and current occupancy. Hits
// counts every Resolve served by a built or in-flight slot; Joins is the
// subset that waited on a build in flight.
type Stats struct {
	Hits, Misses, Evictions, Joins, InFlight int64
	Entries                                  int
	Used, Cap                                int64
}

// Stats snapshots the counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Joins: c.joins,
		InFlight: c.inflight.Load(),
		Entries:  c.ll.Len(), Used: c.used, Cap: c.cap,
	}
}
