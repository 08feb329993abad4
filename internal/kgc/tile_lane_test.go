package kgc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc/store"
)

// The oracle lane: what the scorer did before it was tile-fed. The whole
// pool is expanded with store.Gather into one pool-sized float64 block and
// every (query, candidate) score is one plain sequential loop over it — no
// tiles, no four-row interleaving. The production lane must reproduce it bit
// for bit.

func refDot(q, c []float64) float64 {
	s := 0.0
	for k := range q {
		s += q[k] * c[k]
	}
	return s
}

func refL1(q, c []float64) float64 {
	s := 0.0
	for k := range q {
		s += math.Abs(q[k] - c[k])
	}
	return -s
}

func refRot(q, c []float64) float64 {
	half := len(q) / 2
	s := 0.0
	for k := 0; k < half; k++ {
		re, im := q[k]-c[k], q[half+k]-c[half+k]
		s += math.Sqrt(float64(re*re) + float64(im*im))
	}
	return -s
}

// oracleBatch scores ents × cands for relation r in one direction through
// the gather lane at precision p.
func oracleBatch(t *testing.T, m Model, p store.Precision, tails bool, ents []int32, r int32, cands []int32) []float64 {
	t.Helper()
	bn := m.(batchNative)
	dim, nc := m.Dim(), len(cands)
	ent := bn.lane().ent
	st, err := store.FromRows(ent.w, len(ent.w)/dim, dim, p)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]float64, nc*dim)
	st.Gather(cands, block)

	qs := make([]float64, len(ents)*dim)
	if tails {
		bn.buildTailQueries(ents, r, qs, &scratch{})
	} else {
		bn.buildHeadQueries(ents, r, qs, &scratch{})
	}
	ref := refDot
	switch m.Name() {
	case "TransE":
		ref = refL1
	case "RotatE":
		ref = refRot
	}
	out := make([]float64, len(ents)*nc)
	for i := range ents {
		q := qs[i*dim : (i+1)*dim]
		for j, c := range cands {
			s := ref(q, block[j*dim:(j+1)*dim])
			if bias := bn.lane().bias; bias != nil {
				s += bias.vec(c)[0]
			}
			out[i*nc+j] = s
		}
	}
	return out
}

// lanePools returns the pool shapes the tile walk meets on a table of n
// rows: a run, a run broken inside a tile, a run touching the table's end,
// a single row, and a scattered pool with repeats.
func lanePools(rng *rand.Rand, n int) map[string][]int32 {
	run := func(lo, hi int32) []int32 {
		ids := make([]int32, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		return ids
	}
	gap := append(run(10, 16), run(17, 73)...) // one id missing inside the second tile of 4
	scattered := make([]int32, 61)
	for i := range scattered {
		scattered[i] = int32(rng.Intn(n))
	}
	return map[string][]int32{
		"consecutive": run(5, 72),
		"gap":         gap,
		"table-end":   run(int32(n)-37, int32(n)),
		"single":      {int32(n) / 2},
		"scattered":   scattered,
	}
}

func laneModels(t *testing.T, g *kg.Graph, dim int, seed int64) []Model {
	t.Helper()
	models := make([]Model, 0, len(ModelNames()))
	for _, name := range ModelNames() {
		m, err := New(name, g, dim, seed)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := m.(*ConvE); ok {
			// ConvE's per-entity bias starts at zero; give it values so the
			// bias epilogue is actually compared.
			rng := rand.New(rand.NewSource(seed))
			for i := range c.bias.w {
				c.bias.w[i] = rng.NormFloat64()
			}
		}
		models = append(models, m)
	}
	return models
}

func TestTileLaneMatchesGatherOracle(t *testing.T) {
	g := trainGraph(t)
	rng := rand.New(rand.NewSource(41))
	pools := lanePools(rng, g.NumEntities)
	ents := []int32{3, 99, 123, 47, 149}
	const r = int32(2)
	for _, dim := range []int{20, 28, 64} { // 20, 28: rows end in a partial quantization block
		for _, m := range laneModels(t, g, dim, 11) {
			for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
				for pname, cands := range pools {
					for _, tails := range []bool{true, false} {
						want := oracleBatch(t, m, p, tails, ents, r, cands)
						for _, tile := range []int{1, 3, 4, 8, 64} {
							name := fmt.Sprintf("%s dim=%d %v %s tails=%v tile=%d", m.Name(), dim, p, pname, tails, tile)
							bs := NewBatchScorer(m, BatchOptions{Precision: p, Tile: tile})
							got := make([]float64, len(want))
							if tails {
								bs.ScoreTailsBatch(ents, r, cands, got)
							} else {
								scoreHeadsBatch(bs, ents, r, cands, got)
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s: batch score[%d] = %v, oracle %v", name, i, got[i], want[i])
								}
							}
							// A block of one query is a chunk of the same lane:
							// the first query's row.
							one := got[:len(cands)]
							if tails {
								bs.ScoreTailsBatch(ents[:1], r, cands, one)
							} else {
								scoreHeadsBatch(bs, ents[:1], r, cands, one)
							}
							for j := range one {
								if one[j] != want[j] {
									t.Fatalf("%s: one-query score[%d] = %v, oracle %v", name, j, one[j], want[j])
								}
							}
							// A tail answer is the lane's only when routed;
							// otherwise it is the model's own closed form.
							if tails && bs.(*storeScorer).routeTriple() {
								if s := bs.ScoreAnswer(0, cands[0]); s != want[0] {
									t.Fatalf("%s: ScoreAnswer = %v, oracle %v", name, s, want[0])
								}
							}
						}
					}
				}
			}
		}
	}
}

// A scorer holds one tile of candidate rows at most, never the pool: after
// scoring every entity its scratch is tile × dim floats.
func TestScorerScratchIsTileSized(t *testing.T) {
	g := trainGraph(t)
	all := make([]int32, g.NumEntities)
	for i := range all {
		all[i] = int32(i)
	}
	scattered := append([]int32{1, 0}, all[2:]...)
	ents := []int32{1, 2, 3}
	out := make([]float64, len(ents)*len(all))
	const dim, tile = 16, 8
	for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
		m := NewDistMult(g, dim, 3)
		bs := NewBatchScorer(m, BatchOptions{Precision: p, Tile: tile}).(*storeScorer)
		bs.ScoreTailsBatch(ents, 0, all, out)
		bs.ScoreTailsBatch(ents, 0, scattered, out)
		if got := cap(bs.sc.tbuf); got != tile*dim {
			t.Errorf("%v: tile buffer holds %d floats after a %d-candidate pool, want %d", p, got, len(all), tile*dim)
		}
	}
}

// TileFor is positive, pool-clamped and a multiple of four (or the whole
// pool) across the sweep range, at every precision.
func TestTileForShape(t *testing.T) {
	for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
		for _, dim := range []int{0, 8, 32, 64, 128, 256, 512, 1024, 4096} {
			for _, pool := range []int{0, 3, 100, 800, 8000} {
				tile := TileFor(pool, dim, p)
				if tile < 1 {
					t.Fatalf("TileFor(%d, %d, %v) = %d", pool, dim, p, tile)
				}
				if pool > 0 && tile > pool {
					t.Fatalf("TileFor(%d, %d, %v) = %d exceeds pool", pool, dim, p, tile)
				}
				if tile%4 != 0 && tile != pool {
					t.Fatalf("TileFor(%d, %d, %v) = %d leaves the four-row path idle", pool, dim, p, tile)
				}
			}
		}
	}
}
