package eval

import (
	"sync"

	"kgeval/internal/kgc"
)

// countGo is the strip's compare, and its definition: how many scores are
// strictly above t and how many equal it. t is a number; a NaN score is
// neither (both comparisons are false), which is what ranks it below every
// number.
func countGo(scores []float64, t float64) (better, ties int) {
	for _, s := range scores {
		if s > t {
			better++
		}
		if s == t {
			ties++
		}
	}
	return better, ties
}

// countScores is the compare blockQuery.count runs: countGo, or — installed
// at init where internal/cpu finds AVX2 (count_amd64.go) — its AVX2 twin,
// which gives the same two counts.
var countScores = countGo

// poolIndex is where each id of a block's pool first sits: pos[id] is 1 plus
// the first index of id in pool, and 0 means id is not in it (as does an id
// at or past len(pos)). A worker fills it once per block (index), so that
// the answer and each known positive cost count one lookup a strip, and
// clears it when the block ends (clear): every entry is 0 between blocks,
// which is what index relies on. It is |E|·4 bytes, and is kept across
// blocks and passes in indexes.
type poolIndex struct {
	pool []int32
	pos  []int32
}

// indexes holds the evaluation workers' position indexes between passes,
// every entry 0.
var indexes = sync.Pool{New: func() any { return new(poolIndex) }}

// index fills the index with pool, which is sorted ascending, may repeat an
// id and holds entity ids below entities. An id outside [0, entities) is
// the bounds panic it would be in the scorer, before anything is allocated
// for it.
func (x *poolIndex) index(pool []int32, entities int) {
	x.pool, x.pos = pool, kgc.Grow(x.pos, entities) // all 0, past len too
	for j, id := range pool {
		if x.pos[id] == 0 {
			x.pos[id] = int32(j + 1)
		}
	}
}

// clear zeroes what index wrote.
func (x *poolIndex) clear() {
	for _, id := range x.pool {
		x.pos[id] = 0
	}
	x.pool = nil
}

// first is the index in pool of id's first copy, or -1 when pool has none.
func (x *poolIndex) first(id int32) int {
	if uint(id) >= uint(len(x.pos)) {
		return -1
	}
	return int(x.pos[id]) - 1
}
