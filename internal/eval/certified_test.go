package eval

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
)

// The certified rank count's gates. On the 512-bit lane the executor ranks
// from approximate scores and rescores what their bound cannot settle
// (count.go); these tests plant what that is hardest for — exact ties,
// near-ties, NaN and infinite rows, values past the overflow gate, constant
// scores — and hold the ranks to the oracle's, which scores every candidate
// exactly through the model's own methods. Elsewhere they run the exact
// count and hold it to the same oracle.

// certifiedModels are the models the 512-bit lane scores approximately.
var certifiedModels = []string{"TransE", "DistMult", "ComplEx", "RESCAL", "TuckER", "ConvE", "RotatE"}

// editEntities rewrites m's entity table, the first table kgc.Save writes,
// through a Save/Load round trip: edit gets the table as rows of m.Dim()
// values, and what it leaves there is what m holds after.
func editEntities(t *testing.T, m kgc.Model, entities int, edit func(rows [][]float64)) {
	t.Helper()
	var buf bytes.Buffer
	if err := kgc.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	off := len("KGEVALM1") + 8 + len(m.Name()) + 8 // magic, name, table count
	n := entities * m.Dim()
	if got := binary.LittleEndian.Uint64(b[off:]); got != uint64(n) {
		t.Fatalf("%s: the first table holds %d values, not the %d×%d entity rows", m.Name(), got, entities, m.Dim())
	}
	off += 8
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8*i:]))
	}
	edit(slices.Collect(slices.Chunk(vals, m.Dim())))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
	}
	if err := kgc.Load(bytes.NewReader(b), m); err != nil {
		t.Fatal(err)
	}
}

// plantTies makes entity rows that tie or nearly tie with the test answers:
// for each of the first test triples, three copies of its tail's row and
// three of its head's (exact ties with the answer, in one direction or the
// other), and rows one ulp above and below in one value (near-ties). Then a
// NaN row, an infinite row and a row past the dot kernel's overflow gate.
func plantTies(g *kg.Graph, rows [][]float64) {
	next := int32(len(rows) - 1)
	take := func() []float64 {
		next--
		return rows[next+1]
	}
	for _, q := range g.Test[:8] {
		for _, e := range []int32{q.T, q.H} {
			for range 3 {
				copy(take(), rows[e])
			}
			up, down := take(), take()
			copy(up, rows[e])
			copy(down, rows[e])
			k := len(up) / 2
			up[k] = math.Nextafter(up[k], math.Inf(1))
			down[k] = math.Nextafter(down[k], math.Inf(-1))
		}
	}
	take()[0] = math.NaN()
	take()[1] = math.Inf(1)
	big := take()
	for k := range big {
		big[k] = 0x1p600
	}
}

// Executor against oracle on native models whose entity tables are planted
// with ties, near-ties, NaN, infinite and huge rows, and on models whose
// rows are all one row (every score tied): the full pool and a fixed one, in
// one strip and in many, on one worker and on three.
func TestCertifiedRanksMatchOracleOnPlantedTies(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	full := NewFullProvider(g.NumEntities)
	var third []int32
	for e := 0; e < g.NumEntities; e += 3 {
		third = append(third, int32(e))
	}
	opts := Options{Filter: filter, Seed: 9, MaxQueries: 60}
	for _, strips := range []string{"one strip", "many strips"} {
		if strips == "many strips" {
			shrinkChunks(t, 24, 96)
		}
		for _, name := range certifiedModels {
			for _, plant := range []string{"planted", "constant"} {
				m, err := kgc.New(name, g, 16, 5)
				if err != nil {
					t.Fatal(err)
				}
				editEntities(t, m, g.NumEntities, func(rows [][]float64) {
					if plant == "planted" {
						plantTies(g, rows)
						return
					}
					for _, r := range rows[1:] {
						copy(r, rows[0])
					}
				})
				for _, workers := range []int{1, 3} {
					opts.Workers = workers
					label := name + "/" + plant + "/" + strips
					checkAgainstOracle(t, label+"/full", m, m, g, g.Test, full, opts)
					checkAgainstOracle(t, label+"/every third", m, m, g, g.Test, fixedProvider{pool: third}, opts)
				}
			}
		}
	}
}

// The rescore budgets are the share of a full-protocol block's candidates
// that a model's window may send to an exact rescore, besides the answer's
// own copies. The rank kernels score in float32, so a window holds the
// candidates whose score lies within the kernel's bound of the answer's:
// about (n + 2)·2⁻²⁴·‖q‖₁·max|c| for a dot model, (3n − 1)·2⁻²⁴·(‖q‖₁ +
// n·max|c|) for TransE, and 2⁻¹⁴ relative (RotatE's VRSQRT14PS root) with
// (n + 4)·2⁻²⁴ more. Measured on the embeddings kgc.New gives, at dims 2 to
// 512, untrained and after an epoch, in TestCertifiedWindowHoldsOnlyTheAnswer
// (14 400 candidates per block pair): 0 to 30 for the dot models (0.21 %),
// 0 to 71 for TransE (0.49 %, at dim 512), 0 to 24 for RotatE (0.17 %); and
// 1 of 36 000 for TransE, 9 for RotatE, 0 for the others in
// TestCertifiedFullPassRescoresNothing's dim-16 pass. Each budget is about
// twice the worst of those.
const (
	dotRescoreBudget = 0.005
	l1RescoreBudget  = 0.01
	rotRescoreBudget = 0.003
)

// rescoreBudget is the model's budget: TransE's, RotatE's or the dot
// models'.
func rescoreBudget(name string) float64 {
	switch name {
	case "TransE":
		return l1RescoreBudget
	case "RotatE":
		return rotRescoreBudget
	}
	return dotRescoreBudget
}

// On the embeddings kgc.New gives the seven models, untrained and after one
// epoch (over 64 training triples), at dims 2 to 512, the window settles
// every candidate of a full-protocol block but the answer's own copies,
// which count and uncount leave alone, and a few more: no more than the
// model's rescore budget of the candidates, and the count is logged. TuckER stops at dim 64, where its core already holds 2.6·10⁵
// values and an epoch costs dim³ a triple (512 would be 1 GiB and minutes),
// and every model stops there under -short. On a lane without approximate
// kernels every Bound is zero and the test skips.
func TestCertifiedWindowHoldsOnlyTheAnswer(t *testing.T) {
	g := evalGraph(t)
	pool := make([]int32, g.NumEntities)
	for e := range pool {
		pool[e] = int32(e)
	}
	queries := g.Test[:24]
	ents := make([]int32, len(queries))
	small := *g
	small.Train = g.Train[:64] // an epoch that moves every model off its initialisation, at TuckER's dim³ cost per triple
	certified := 0
	for _, name := range certifiedModels {
		for _, dim := range []int{2, 4, 16, 64, 128, 256, 512} {
			if name == "TuckER" && dim > 64 || testing.Short() && dim > 64 {
				continue
			}
			m, err := kgc.New(name, g, dim, 7)
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 2; epoch++ {
				if epoch == 1 {
					kgc.Train(m, &small, kgc.TrainConfig{Epochs: 1, Seed: 1})
				}
				bs := kgc.NewBatchScorer(m, kgc.BatchOptions{})
				inside, seen := 0, 0
				for _, tails := range []bool{true, false} {
					bs.BeginBlock(len(queries))
					for i, q := range queries {
						ents[i] = q.T
						if tails {
							ents[i] = q.H
						}
					}
					r := queries[0].R
					if tails {
						bs.AddTails(ents, r)
					} else {
						bs.AddHeads(ents, r)
					}
					scores := make([]float64, len(queries)*len(pool))
					bounds := make([]kgc.Bound, len(queries))
					bs.RankBlock(pool, scores, bounds)
					for i, q := range queries {
						if bounds[i] == (kgc.Bound{}) {
							continue
						}
						certified++
						truth := q.T
						if !tails {
							truth = q.H
						}
						t0 := bs.ScoreAnswer(i, truth)
						lo, hi, ok := edges(t0, bounds[i])
						if !ok {
							t.Fatalf("%s dim=%d epoch=%d: no window for t = %v, bound %+v", name, dim, epoch, t0, bounds[i])
						}
						seen += len(pool)
						for j, f := range scores[i*len(pool) : (i+1)*len(pool)] {
							if !(f > hi) && !(f < lo) && pool[j] != truth {
								inside++
							}
						}
					}
				}
				t.Logf("%s dim=%d epoch=%d: %d of %d candidates inside the window", name, dim, epoch, inside, seen)
				if budget := rescoreBudget(name); float64(inside) > budget*float64(seen) {
					t.Errorf("%s dim=%d epoch=%d: %d of %d candidates fall inside the window, past the budget of %v",
						name, dim, epoch, inside, seen, budget)
				}
			}
		}
	}
	if certified == 0 {
		t.Skip("every Bound is zero: this lane ranks from exact scores")
	}
}

// The same end to end: a traced full-protocol pass of each of the seven
// models rescores no more than its rescore budget of the candidates it
// scored (the eval.pass span's rescored attribute, logged), and ranks as the
// oracle does.
func TestCertifiedFullPassRescoresNothing(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	for _, name := range certifiedModels {
		m, err := kgc.New(name, g, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		store := trace.NewStore(0, 1024)
		ctx, root := store.StartTrace(context.Background(), "certified")
		opts := Options{Filter: filter, Seed: 9, MaxQueries: 60, Workers: 2, Ctx: ctx}
		checkAgainstOracle(t, name, m, m, g, g.Test, NewFullProvider(g.NumEntities), opts)
		root.End()
		for _, s := range root.Recorder().Snapshot().Spans {
			if s.Name != "eval.pass" {
				continue
			}
			rescored, ok := s.Attr("rescored").(int64)
			scored, _ := s.Attr("candidates_scored").(int64)
			t.Logf("%s: a full pass rescored %d of %d candidates", name, rescored, scored)
			if budget := rescoreBudget(name); !ok || float64(rescored) > budget*float64(scored) {
				t.Errorf("%s: a full pass rescored %v of %d candidates, past the budget of %v", name, s.Attr("rescored"), scored, budget)
			}
		}
	}
}

// stripScorer is a kgc.BatchScorer whose only method in use is Rescore: the
// exact scores of one strip, for countWithin.
type stripScorer struct {
	kgc.BatchScorer
	exact []float64
}

// Rescore copies the exact scores of cands, a sub-slice of the strip's
// candidates whose capacity ends with the strip's: where it starts is what
// its capacity says.
func (s *stripScorer) Rescore(i int, cands []int32, out []float64) {
	j := len(s.exact) - cap(cands)
	copy(out, s.exact[j:j+len(cands)])
}

// FuzzCertifiedCount holds countWithin to the exact count. The fuzzer picks
// a strip of exact scores (planted with exact ties, near-ties one to four
// ulps from t, NaN, ±Inf, ±0 and subnormals), the answer's score t among
// them or not, a Bound from zero to huge — Rel from 2⁻⁵³ to 2⁻¹⁰, or the
// float32 RotatE kernel's 2⁻¹⁴ + (n + 4)·2⁻²⁴·(1 + 2⁻⁷) — and approximations
// that move each score anywhere the Bound allows (or to NaN, which may stand
// for any score); the answer and some known positives sit in the pool,
// which repeats ids, and the strip is counted whole or cut at a chosen
// point. Every cut must give the exact count's better and tie counts.
func FuzzCertifiedCount(f *testing.F) {
	f.Add(uint8(20), uint8(3), uint8(5), uint8(0), uint16(40), uint8(7), int64(1))
	f.Add(uint8(64), uint8(0), uint8(9), uint8(2), uint16(900), uint8(31), int64(2))
	f.Add(uint8(9), uint8(8), uint8(1), uint8(5), uint16(2000), uint8(2), int64(3))
	f.Add(uint8(33), uint8(1), uint8(30), uint8(6), uint16(1075), uint8(0), int64(4))
	// RotatE's float32 Rel at dim 64 (n = 32) with its Abs near 2⁻²⁰, a
	// float32 dot bound at dim 128: Rel 0, Abs (n + 2)·2⁻²⁴·‖q‖₁·max|c| near
	// 2⁻¹⁶, and a Rel of 2⁻¹¹ with an Abs of 2⁻¹⁰, over normal scores with
	// near-ties.
	f.Add(uint8(70), uint8(6), uint8(20), uint8(231), uint16(1080), uint8(3), int64(5))
	f.Add(uint8(70), uint8(6), uint8(20), uint8(3), uint16(1084), uint8(3), int64(6))
	f.Add(uint8(50), uint8(0), uint8(11), uint8(101), uint16(1090), uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, nB, tB, cutB, relB uint8, absB uint16, mixB uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nB)%80
		// Exact scores: a few levels, so ties abound, and specials.
		levels := []float64{1.5, -2.25, 0, math.Copysign(0, -1), 0x1p-1060, -0x1p-1070, 3e300, math.NaN(), math.Inf(1), math.Inf(-1)}
		exact := make([]float64, n)
		for j := range exact {
			exact[j] = levels[rng.Intn(len(levels))]
			if int(mixB)%3 == 0 {
				exact[j] = rng.NormFloat64()
			}
		}
		tv := levels[int(tB)%len(levels)]
		if int(tB)%3 == 0 {
			tv = exact[int(tB)%n]
		}
		for j := range exact { // near-ties: 1 to 4 ulps from t
			if rng.Intn(4) == 0 {
				v := tv
				for range 1 + rng.Intn(4) {
					v = math.Nextafter(v, math.Inf(2*rng.Intn(2)-1))
				}
				exact[j] = v
			}
		}
		// A bound: Abs from 0 to 2^(absB-1100), so from subnormal to
		// huge, and Rel from 0 to 2⁻²⁴ (relB below 100, the seeds' first
		// range), from 2⁻⁵³ to 2⁻¹⁰ (below 200), or RotatE's float32 Rel
		// over n = relB − 199 complex dims.
		b := kgc.Bound{}
		if absB%5 != 0 {
			b.Abs = math.Ldexp(1, int(absB)%2200-1100)
		}
		switch {
		case relB >= 200:
			b.Rel = 0x1p-14 + float64(int(relB)-199+4)*0x1p-24*(1+0x1p-7)
		case relB >= 100:
			b.Rel = math.Ldexp(1, -10-int(relB-100)%44)
		case relB%3 != 0:
			b.Rel = math.Ldexp(1, -24-int(relB)%30)
		}
		// Approximations anywhere within the bound; the zero Bound promises
		// the exact bits.
		approx := make([]float64, n)
		for j, s := range exact {
			approx[j] = s
			switch {
			case b == (kgc.Bound{}):
			case rng.Intn(9) == 0:
				approx[j] = math.NaN()
			case s == s && !math.IsInf(s, 0):
				d := 0.999 * rng.Float64() * (b.Abs + b.Rel*math.Abs(s)) / (1 + b.Rel)
				if rng.Intn(2) == 0 {
					d = -d
				}
				if v := s + d; math.Abs(v-s) <= b.Abs+b.Rel*math.Abs(v) {
					approx[j] = v
				}
			}
		}
		// The pool: ascending ids, some repeated; the answer among them,
		// some known positives.
		pool := make([]int32, n)
		id := int32(0)
		for j := range pool {
			if rng.Intn(4) != 0 {
				id++
			}
			pool[j] = id
		}
		truth := pool[rng.Intn(n)]
		var known []int32
		for e := int32(0); e <= id+1; e++ {
			if e != truth && rng.Intn(4) == 0 {
				known = append(known, e)
			}
		}
		var x poolIndex
		x.index(pool, int(id)+2)
		defer x.clear()

		want := blockQuery{truth: truth, score: tv, known: known}
		want.count(&x, 0, exact)
		cut := int(cutB) % (n + 1)
		got := blockQuery{truth: truth, score: tv, known: known}
		for _, r := range [][2]int{{0, cut}, {cut, n}} {
			scores := slices.Clone(approx[r[0]:r[1]])
			bs := &stripScorer{exact: exact[r[0]:r[1]:r[1]]}
			w := window{b: b, bs: bs, cands: pool[r[0]:r[1]:r[1]]}
			got.countWithin(&x, r[0], scores, &w)
		}
		if got.better != want.better || got.ties != want.ties {
			t.Fatalf("n=%d t=%v bound %+v cut %d: %d better, %d ties; exact count %d, %d\nexact %v\napprox %v",
				n, tv, b, cut, got.better, got.ties, want.better, want.ties, exact, approx)
		}
	})
}
