package kgc

import (
	"math/rand"
	"testing"

	"kgeval/internal/kgc/store"
)

// Batch scoring is only an execution strategy: for every model, the batch
// methods must reproduce the per-query ScoreTails/ScoreHeads outputs bit for
// bit, since the evaluation ranks compare raw float scores for equality.
func TestBatchScoringBitIdentical(t *testing.T) {
	g := trainGraph(t)
	rng := rand.New(rand.NewSource(77))
	for _, name := range ModelNames() {
		m, err := New(name, g, 20, 9)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBatchScorer(m, BatchOptions{})

		const nq, nc = 13, 37
		qsEnt := make([]int32, nq)
		for i := range qsEnt {
			qsEnt[i] = int32(rng.Intn(g.NumEntities))
		}
		cands := make([]int32, nc)
		for i := range cands {
			cands[i] = int32(rng.Intn(g.NumEntities))
		}
		r := int32(rng.Intn(g.NumRelations))

		batch := make([]float64, nq*nc)
		single := make([]float64, nc)

		bs.ScoreTailsBatch(qsEnt, r, cands, batch)
		for i, h := range qsEnt {
			m.ScoreTails(h, r, cands, single)
			for j := range single {
				if batch[i*nc+j] != single[j] {
					t.Fatalf("%s: ScoreTailsBatch[%d,%d] = %v, per-query = %v", name, i, j, batch[i*nc+j], single[j])
				}
			}
		}

		bs.ScoreHeadsBatch(qsEnt, r, cands, batch)
		for i, tl := range qsEnt {
			m.ScoreHeads(r, tl, cands, single)
			for j := range single {
				if batch[i*nc+j] != single[j] {
					t.Fatalf("%s: ScoreHeadsBatch[%d,%d] = %v, per-query = %v", name, i, j, batch[i*nc+j], single[j])
				}
			}
		}
	}
}

// All seven built-in models score through the universal store-backed batch
// lane; an externally supplied plain Model gets batchAdapter, which must
// reproduce the model's own per-query scores bit for bit whatever options
// it is handed.
func TestNewBatchScorerDispatch(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		m, err := New(name, g, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBatchScorer(m, BatchOptions{})
		if _, ok := bs.(*storeScorer); !ok {
			t.Errorf("%s: NewBatchScorer = %T, want *storeScorer", name, bs)
		}
	}
	m, _ := New("TransE", g, 8, 1)
	bs := NewBatchScorer(plainModel{m}, BatchOptions{Precision: store.Int8, Tile: 3})
	if _, ok := bs.(*batchAdapter); !ok {
		t.Fatalf("plain Model: NewBatchScorer = %T, want batchAdapter", bs)
	}
	// Idempotent: an existing BatchScorer must not be re-wrapped.
	if again := NewBatchScorer(bs, BatchOptions{}); again != bs {
		t.Error("NewBatchScorer re-wrapped an existing BatchScorer")
	}
	qs, cands := []int32{4, 0, 9}, []int32{7, 1, 1, 30, 2}
	got, want := make([]float64, len(qs)*len(cands)), make([]float64, len(cands))
	for _, tails := range []bool{true, false} {
		if tails {
			bs.ScoreTailsBatch(qs, 2, cands, got)
		} else {
			bs.ScoreHeadsBatch(qs, 2, cands, got)
		}
		for i, q := range qs {
			if tails {
				m.ScoreTails(q, 2, cands, want)
			} else {
				m.ScoreHeads(2, q, cands, want)
			}
			for j := range want {
				if got[i*len(cands)+j] != want[j] {
					t.Fatalf("adapter tails=%v [%d,%d] = %v, model's own = %v", tails, i, j, got[i*len(cands)+j], want[j])
				}
			}
		}
	}
}

// plainModel hides a model's native batch contract, leaving only the Model
// interface visible.
type plainModel struct{ m Model }

func (p plainModel) Name() string                                  { return p.m.Name() }
func (p plainModel) Dim() int                                      { return p.m.Dim() }
func (p plainModel) ScoreTriple(h, r, t int32) float64             { return p.m.ScoreTriple(h, r, t) }
func (p plainModel) ScoreTails(h, r int32, c []int32, o []float64) { p.m.ScoreTails(h, r, c, o) }
func (p plainModel) ScoreHeads(r, t int32, c []int32, o []float64) { p.m.ScoreHeads(r, t, c, o) }

// Zero-length query and candidate slices must be safe no-ops.
func TestBatchScoringEmpty(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		m, err := New(name, g, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBatchScorer(m, BatchOptions{})
		bs.ScoreTailsBatch(nil, 0, []int32{1, 2}, nil)
		bs.ScoreTailsBatch([]int32{1, 2}, 0, nil, nil)
		bs.ScoreHeadsBatch(nil, 0, []int32{1, 2}, nil)
		bs.ScoreHeadsBatch([]int32{1, 2}, 0, nil, nil)
	}
}
