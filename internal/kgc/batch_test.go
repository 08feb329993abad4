package kgc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

		scoreHeadsBatch(bs, qsEnt, r, cands, batch)
		for i, tl := range qsEnt {
			m.ScoreHeads(r, tl, cands, single)
			for j := range single {
				if batch[i*nc+j] != single[j] {
					t.Fatalf("%s: scoreHeadsBatch[%d,%d] = %v, per-query = %v", name, i, j, batch[i*nc+j], single[j])
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
	qs, cands := []int32{4, 0, 9}, []int32{7, 1, 1, 30, 2}
	got, want := make([]float64, len(qs)*len(cands)), make([]float64, len(cands))
	for _, tails := range []bool{true, false} {
		if tails {
			bs.ScoreTailsBatch(qs, 2, cands, got)
		} else {
			scoreHeadsBatch(bs, qs, 2, cands, got)
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

// scoreHeadsBatch scores the head queries (cands[j], r, ts[i]) as one block
// into out[i*len(cands)+j]: BeginBlock, AddHeads, scoreBlock.
func scoreHeadsBatch(bs BatchScorer, ts []int32, r int32, cands []int32, out []float64) {
	bs.BeginBlock(len(ts))
	bs.AddHeads(ts, r)
	scoreBlock(bs, cands, out)
}

// scoreBlock writes the exact scores of bs's block against cands, through
// the method both of this package's BatchScorers have and the interface
// leaves out.
func scoreBlock(bs BatchScorer, cands []int32, out []float64) {
	bs.(interface{ scoreBlock([]int32, []float64) }).scoreBlock(cands, out)
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
		scoreHeadsBatch(bs, nil, 0, []int32{1, 2}, nil)
		scoreHeadsBatch(bs, []int32{1, 2}, 0, nil, nil)
	}
}

// A query's true answer is scored from the vector the block already holds.
// That must be, bit for bit, what a one-query block of the same query writes
// for the answer on a scorer with the same options (or, for a tail query
// whose answer the scorer leaves to the model, the model's ScoreTriple), and
// at float64 what the model's ScoreTriple (tail) or ScoreHeads over the one
// id (head) returns — at every precision, whether the block holds one
// relation or several in both directions, and without disturbing the block.
func TestScoreAnswerMatchesPerQueryBits(t *testing.T) {
	g := trainGraph(t)
	rng := rand.New(rand.NewSource(5))
	ents := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.Intn(g.NumEntities))
		}
		return out
	}
	type part struct {
		es   []int32
		r    int32
		tail bool
	}
	blocks := map[string][]part{
		"one relation, tails": {{ents(9), 1, true}},
		"one relation, heads": {{ents(9), 1, false}},
		"mixed": {{ents(5), 0, true}, {ents(5), 0, false}, {ents(1), 3, false},
			{ents(7), 2, true}, {ents(3), 0, true}},
	}
	cands := ents(11)
	one := make([]float64, 1)
	for _, name := range ModelNames() {
		m, err := New(name, g, 20, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, prec := range []store.Precision{store.Float64, store.Float32, store.Int8} {
			bs := NewBatchScorer(m, BatchOptions{Precision: prec})
			ref := NewBatchScorer(m, BatchOptions{Precision: prec})
			for label, parts := range blocks {
				nq := 0
				for _, p := range parts {
					nq += len(p.es)
				}
				bs.BeginBlock(nq)
				var flat []directedQuery
				for _, p := range parts {
					if p.tail {
						bs.AddTails(p.es, p.r)
					} else {
						bs.AddHeads(p.es, p.r)
					}
					flat = addQueries(flat, p.es, p.r, p.tail)
				}
				block := make([]float64, nq*len(cands))
				scoreBlock(bs, cands, block)
				for i, q := range flat {
					e := cands[i%len(cands)]
					got := bs.ScoreAnswer(i, e)
					var want, own float64
					if q.tail {
						ref.ScoreTailsBatch([]int32{q.e}, q.r, []int32{e}, one)
						want, own = one[0], m.ScoreTriple(q.e, q.r, e)
						if !bs.(*storeScorer).routeTriple() {
							want = own
						}
					} else {
						scoreHeadsBatch(ref, []int32{q.e}, q.r, []int32{e}, one)
						want = one[0]
						m.ScoreHeads(q.r, q.e, []int32{e}, one)
						own = one[0]
					}
					if prec == store.Float64 && math.Float64bits(got) != math.Float64bits(own) {
						t.Fatalf("%s/%s: ScoreAnswer(%d, %d) = %v, the model's own per-query score (tail=%v) %v",
							name, label, i, e, got, q.tail, own)
					}
					if again := bs.ScoreAnswer(i, e); math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(again) != math.Float64bits(want) {
						t.Fatalf("%s/%s/%s: ScoreAnswer(%d, %d) = %v, then %v; per-query (tail=%v) = %v",
							name, prec, label, i, e, got, again, q.tail, want)
					}
					if in := block[i*len(cands)+i%len(cands)]; !q.tail && in != want {
						t.Fatalf("%s/%s/%s: block score %v, answer %v for the same head query and entity", name, prec, label, in, want)
					}
				}
				again := make([]float64, len(block))
				scoreBlock(bs, cands, again)
				if !slices.Equal(block, again) {
					t.Fatalf("%s/%s/%s: the answers disturbed the block", name, prec, label)
				}
			}
		}
	}
}

// recordingModel is a third-party model that notes the calls it receives.
type recordingModel struct {
	plainModel
	calls *[]string
}

func (m recordingModel) ScoreTriple(h, r, t int32) float64 {
	*m.calls = append(*m.calls, fmt.Sprintf("ScoreTriple(%d,%d,%d)", h, r, t))
	return m.plainModel.ScoreTriple(h, r, t)
}

func (m recordingModel) ScoreHeads(r, t int32, c []int32, o []float64) {
	*m.calls = append(*m.calls, fmt.Sprintf("ScoreHeads(%d,%d,%v)", r, t, c))
	m.plainModel.ScoreHeads(r, t, c, o)
}

// Through the adapter a third-party model sees, for each true triple, the
// call it has always seen: ScoreTriple for a tail query, ScoreHeads over the
// one id for a head query.
func TestBatchAdapterAnswerCallSequence(t *testing.T) {
	g := trainGraph(t)
	m, _ := New("DistMult", g, 8, 1)
	var calls []string
	bs := NewBatchScorer(recordingModel{plainModel{m}, &calls}, BatchOptions{})
	bs.BeginBlock(3)
	bs.AddTails([]int32{4, 6}, 2)
	bs.AddHeads([]int32{9}, 1)
	got := []float64{bs.ScoreAnswer(0, 7), bs.ScoreAnswer(2, 5), bs.ScoreAnswer(1, 3)}
	one := make([]float64, 1)
	m.ScoreHeads(1, 9, []int32{5}, one)
	want := []float64{m.ScoreTriple(4, 2, 7), one[0], m.ScoreTriple(6, 2, 3)}
	if !slices.Equal(got, want) {
		t.Errorf("answers = %v, the model's own = %v", got, want)
	}
	if seen := []string{"ScoreTriple(4,2,7)", "ScoreHeads(1,9,[5])", "ScoreTriple(6,2,3)"}; !slices.Equal(calls, seen) {
		t.Errorf("model saw %v, want %v", calls, seen)
	}
}
