package kg

import (
	"slices"
	"sort"
)

// pairKey packs two int32 ids into one map key.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// FilterIndex answers "which entities are known true answers for this
// query?" — the core of the *filtered* ranking protocol: when ranking
// candidates for (h, r, ?), every known true tail other than the one under
// evaluation is excluded so it cannot demote the rank.
//
// What counts as known (TestFilterIndexContract tests each point):
//   - exactly the triples of the splits it was built over (conventionally
//     train+valid+test), as a set: a triple repeated within or across
//     splits is listed once;
//   - the query's own answer: Tails(h, r) lists t for a known (h, r, t), so
//     a caller ranking t filters the other entries, not t;
//   - nothing inferred: (h, r, t) does not make h a known tail of (t, r, ?)
//     or t a known head of (?, r, h) — no inverse or symmetric relation;
//   - a self-loop (e, r, e) lists e both as a tail of (e, r, ?) and as a
//     head of (?, r, e);
//   - every id of the int32 range, the largest included, keys its own
//     entry.
//
// The index is built once and is safe for concurrent reads.
type FilterIndex struct {
	tails map[uint64][]int32 // key(h,r) -> sorted known tails
	heads map[uint64][]int32 // key(t,r) -> sorted known heads
}

// NewFilterIndex builds a FilterIndex over the union of the given splits.
func NewFilterIndex(splits ...[]Triple) *FilterIndex {
	f := &FilterIndex{
		tails: make(map[uint64][]int32),
		heads: make(map[uint64][]int32),
	}
	for _, split := range splits {
		for _, t := range split {
			tk := pairKey(t.H, t.R)
			f.tails[tk] = append(f.tails[tk], t.T)
			hk := pairKey(t.T, t.R)
			f.heads[hk] = append(f.heads[hk], t.H)
		}
	}
	for k, v := range f.tails {
		f.tails[k] = sortedUnique(v)
	}
	for k, v := range f.heads {
		f.heads[k] = sortedUnique(v)
	}
	return f
}

// sortedUnique sorts v in place and drops duplicates; the result aliases v.
func sortedUnique(v []int32) []int32 {
	slices.Sort(v)
	return slices.Compact(v)
}

// Tails returns the sorted known tails for (h, r, ?). The returned slice is
// owned by the index and must not be modified.
func (f *FilterIndex) Tails(h, r int32) []int32 {
	return f.tails[pairKey(h, r)]
}

// Heads returns the sorted known heads for (?, r, t). The returned slice is
// owned by the index and must not be modified.
func (f *FilterIndex) Heads(r, t int32) []int32 {
	return f.heads[pairKey(t, r)]
}

// IsKnownTail reports whether (h, r, t) is a known positive triple.
func (f *FilterIndex) IsKnownTail(h, r, t int32) bool {
	return contains(f.tails[pairKey(h, r)], t)
}

func contains(sorted []int32, x int32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}
