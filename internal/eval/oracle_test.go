package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// oracleRanks is the filtered ranking protocol written the slow, obvious
// way over the pools a plan drew: one query at a time, in split order, tail
// then head, scoring through nothing but the kgc.Model per-query methods —
// the true tail via ScoreTriple, the true head via ScoreHeads over the one
// id, so reciprocal-relation models rank it on the path its rivals take.
// It shares the pool draw (pinned on its own by TestPlanPoolsGolden) with
// the executor and nothing else: no chunking, no BatchScorer, no merge
// sweep, no worker pool. Agreement with Evaluate is therefore evidence about
// the executor's scoring, filtering and tie handling, not a tautology.
func oracleRanks(m kgc.Model, filter *kg.FilterIndex, p *plan) (ranks []float64, scored int64) {
	pools := map[int32]*relGroup{}
	for gi := range p.groups {
		pools[p.groups[gi].r] = &p.groups[gi]
	}
	for _, q := range p.queries {
		g := pools[q.R]
		scores := make([]float64, len(g.tailPool))
		m.ScoreTails(q.H, q.R, g.tailPool, scores)
		ranks = append(ranks, naiveRank(g.tailPool, scores, m.ScoreTriple(q.H, q.R, q.T), q.T, filter.Tails(q.H, q.R)))

		var truth [1]float64
		m.ScoreHeads(q.R, q.T, []int32{q.H}, truth[:])
		scores = make([]float64, len(g.headPool))
		m.ScoreHeads(q.R, q.T, g.headPool, scores)
		ranks = append(ranks, naiveRank(g.headPool, scores, truth[0], q.H, filter.Heads(q.R, q.T)))
		scored += int64(len(g.tailPool) + len(g.headPool))
	}
	return ranks, scored
}

// naiveRank is 1 + #{strictly better} + #{ties}/2 over the candidates that
// are neither the answer nor a known positive (naiveCounts).
func naiveRank(pool []int32, scores []float64, trueScore float64, truth int32, known []int32) float64 {
	better, ties := naiveCounts(pool, scores, trueScore, truth, known)
	return 1 + float64(better) + float64(ties)/2
}

// naiveCounts counts the candidates that are neither the answer nor a known
// positive and score strictly better than the true triple or tie with it,
// with a map as the skip-set. NaN sorts below every number and ties with
// NaN.
func naiveCounts(pool []int32, scores []float64, trueScore float64, truth int32, known []int32) (better, ties int) {
	skip := map[int32]bool{truth: true}
	for _, k := range known {
		skip[k] = true
	}
	nan := trueScore != trueScore
	for i, c := range pool {
		switch s := scores[i]; {
		case skip[c]:
		case s > trueScore, nan && s == s:
			better++
		case s == trueScore, nan:
			ties++
		}
	}
	return better, ties
}

// oracleMetrics reduces ranks the way the Metrics fields are defined,
// summing in query order so the result can be compared with ==.
func oracleMetrics(ranks []float64) Metrics {
	var mrr, mr, h1, h3, h10 float64
	for _, r := range ranks {
		mrr += 1 / r
		mr += r
		if r <= 1 {
			h1++
		}
		if r <= 3 {
			h3++
		}
		if r <= 10 {
			h10++
		}
	}
	n := float64(len(ranks))
	if n == 0 {
		return Metrics{}
	}
	return Metrics{MRR: mrr / n, Hits1: h1 / n, Hits3: h3 / n, Hits10: h10 / n, MR: mr / n, Queries: len(ranks)}
}

// checkAgainstOracle is the equivalence gate: Evaluate(m) under opts must
// equal the oracle's Metrics and CandidatesScored exactly. ref is the model
// the oracle scores through — m itself, or a per-query view of what m's
// lane is supposed to compute (int8Oracle). opts.Filter must be set. It
// returns the oracle's per-query ranks for the metamorphic checks.
//
// Mutation check, done by hand when this gate was introduced: deleting the
// `known[ki] == c` skip from rankScores fails every filtered row here (the
// gate it replaced ran rankScores on both sides and could not see that).
func checkAgainstOracle(t *testing.T, label string, m, ref kgc.Model, g *kg.Graph, split []kg.Triple, prov CandidateProvider, opts Options) []float64 {
	t.Helper()
	got := Evaluate(m, g, split, prov, opts)
	ranks, scored := oracleRanks(ref, opts.Filter, newPlan(subsample(split, opts), prov, opts))
	if want := oracleMetrics(ranks); got.Metrics != want {
		t.Errorf("%s: executor %+v != oracle %+v", label, got.Metrics, want)
	}
	if got.CandidatesScored != scored {
		t.Errorf("%s: executor scored %d candidates, oracle %d", label, got.CandidatesScored, scored)
	}
	return ranks
}

// plainModel hides a model's batch contract, leaving only the Model
// interface visible: a third-party model, which the executor runs through
// kgc's per-query adapter.
type plainModel struct{ m kgc.Model }

func (p plainModel) Name() string                                  { return p.m.Name() }
func (p plainModel) Dim() int                                      { return p.m.Dim() }
func (p plainModel) ScoreTriple(h, r, t int32) float64             { return p.m.ScoreTriple(h, r, t) }
func (p plainModel) ScoreTails(h, r int32, c []int32, o []float64) { p.m.ScoreTails(h, r, c, o) }
func (p plainModel) ScoreHeads(r, t int32, c []int32, o []float64) { p.m.ScoreHeads(r, t, c, o) }

// relabeledModel is inner seen through a relabelling of the entities: it
// scores (h, r, t) as inner(inv[h], r, inv[t]), candidates included, so the
// entity that was e in inner's graph is π(e) in this one (inv = π⁻¹).
type relabeledModel struct {
	inner kgc.Model
	inv   []int32
}

func (m relabeledModel) Name() string { return m.inner.Name() }
func (m relabeledModel) Dim() int     { return m.inner.Dim() }
func (m relabeledModel) ScoreTriple(h, r, t int32) float64 {
	return m.inner.ScoreTriple(m.inv[h], r, m.inv[t])
}
func (m relabeledModel) ScoreTails(h, r int32, c []int32, o []float64) {
	m.inner.ScoreTails(m.inv[h], r, m.mapped(c), o)
}
func (m relabeledModel) ScoreHeads(r, t int32, c []int32, o []float64) {
	m.inner.ScoreHeads(r, m.inv[t], m.mapped(c), o)
}
func (m relabeledModel) mapped(c []int32) []int32 {
	out := make([]int32, len(c))
	for i, e := range c {
		out[i] = m.inv[e]
	}
	return out
}

// relabelGraph returns g with every split's entities mapped through perm.
func relabelGraph(g *kg.Graph, perm []int) *kg.Graph {
	split := func(ts []kg.Triple) []kg.Triple {
		out := make([]kg.Triple, len(ts))
		for i, q := range ts {
			out[i] = kg.Triple{H: int32(perm[q.H]), R: q.R, T: int32(perm[q.T])}
		}
		return out
	}
	return &kg.Graph{Name: g.Name + "-relabelled", NumEntities: g.NumEntities, NumRelations: g.NumRelations,
		Train: split(g.Train), Valid: split(g.Valid), Test: split(g.Test)}
}

// constModel scores every triple v but those in nan, which score NaN:
// constModel{v: 0.25} ties every candidate, constModel{v: NaN} fails on
// every triple, and a nan set of answers fails on exactly those.
type constModel struct {
	v   float64
	nan map[kg.Triple]bool
}

func (constModel) Name() string { return "const" }
func (constModel) Dim() int     { return 1 }
func (m constModel) ScoreTriple(h, r, t int32) float64 {
	if m.nan[kg.Triple{H: h, R: r, T: t}] {
		return math.NaN()
	}
	return m.v
}
func (m constModel) ScoreTails(h, r int32, c []int32, out []float64) {
	for i, t := range c {
		out[i] = m.ScoreTriple(h, r, t)
	}
}
func (m constModel) ScoreHeads(r, t int32, c []int32, out []float64) {
	for i, h := range c {
		out[i] = m.ScoreTriple(h, r, t)
	}
}

// Third-party models and the protocol's metamorphic properties, as further
// rows of the oracle gate: each row is first held to the oracle with ==, then
// the oracle's per-query ranks are held to a property that must be true of
// any correct filtered ranking.
func TestOracleGatePlainModelsAndProperties(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	raw := kg.NewFilterIndex() // no known positives: the unfiltered protocol
	full := NewFullProvider(g.NumEntities)
	complEx, err := kgc.New("ComplEx", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}

	// A plain Model through batchAdapter, on every strategy.
	providers := equivalenceProviders(t, g)
	for pname, p := range providers {
		for _, m := range []kgc.Model{plainModel{complEx}, formulaModel{}} {
			checkAgainstOracle(t, "plain "+m.Name()+"/"+pname, m, m, g, g.Test, p, Options{Filter: filter, Seed: 9, Workers: 4})
		}
	}

	// Filtering only ever removes rivals: filtered rank <= raw rank, per
	// query. formulaModel's 101 score levels also put ties on both sides.
	for _, m := range []kgc.Model{complEx, formulaModel{}} {
		filtered := checkAgainstOracle(t, "filtered "+m.Name(), m, m, g, g.Test, full, Options{Filter: filter, Seed: 9, Workers: 4})
		unfiltered := checkAgainstOracle(t, "raw "+m.Name(), m, m, g, g.Test, full, Options{Filter: raw, Seed: 9, Workers: 4})
		for i := range filtered {
			if filtered[i] > unfiltered[i] {
				t.Errorf("%s query %d: filtered rank %v > raw rank %v", m.Name(), i, filtered[i], unfiltered[i])
			}
		}
	}

	// A pool grown to a superset only ever adds rivals: the rank does not
	// decrease. Every provider's pools are subsets of the entities, so each
	// sampled rank is at most the full-ranking rank — the one sign every
	// sampled estimate's bias has, for every strategy.
	var third []int32
	for e := 0; e < g.NumEntities; e += 3 {
		third = append(third, int32(e))
	}
	large := checkAgainstOracle(t, "every entity", complEx, complEx, g, g.Test, full, Options{Filter: filter, Seed: 9, Workers: 4})
	for pname, p := range map[string]CandidateProvider{
		"every third entity": fixedProvider{pool: third},
		"Random":             providers["Random"],
		"Static":             providers["Static"],
		"Probabilistic":      providers["Probabilistic"],
	} {
		small := checkAgainstOracle(t, "subset "+pname, complEx, complEx, g, g.Test, p, Options{Filter: filter, Seed: 9, Workers: 4})
		for i := range small {
			if small[i] > large[i] {
				t.Errorf("%s query %d: rank %v on the pool, %v on its superset", pname, i, small[i], large[i])
			}
		}
	}

	// Relabelling the entities moves no rank (the filtering contract of Jain
	// et al. 2020: a filtered rank depends on which triples are known, never
	// on the ids). With the splits mapped through a permutation π, the filter
	// rebuilt on them and the model scoring through π⁻¹, every query ranks
	// as its unpermuted self, on the full pool and on the every-third pool
	// mapped through π. ComplEx, TransE, RotatE and ConvE take every tile
	// kernel, the entity bias and reciprocal relations through it.
	perm := rand.New(rand.NewSource(13)).Perm(g.NumEntities)
	inv := make([]int32, len(perm))
	for e, pe := range perm {
		inv[pe] = int32(e)
	}
	pg := relabelGraph(g, perm)
	pfilter := kg.NewFilterIndex(pg.Train, pg.Valid, pg.Test)
	pthird := make([]int32, len(third))
	for i, e := range third {
		pthird[i] = int32(perm[e])
	}
	slices.Sort(pthird)
	for _, name := range []string{"ComplEx", "TransE", "RotatE", "ConvE"} {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		pm := relabeledModel{inner: m, inv: inv}
		for _, row := range []struct {
			label string
			p, pp CandidateProvider
		}{
			{"full", full, full},
			{"every third entity", fixedProvider{pool: third}, fixedProvider{pool: pthird}},
		} {
			label := name + " " + row.label
			want := checkAgainstOracle(t, label, m, m, g, g.Test, row.p, Options{Filter: filter, Seed: 9, Workers: 4})
			got := checkAgainstOracle(t, "relabelled "+label, pm, pm, pg, pg.Test, row.pp, Options{Filter: pfilter, Seed: 9, Workers: 4})
			moved := 0
			for i := range want {
				if got[i] != want[i] {
					moved++
				}
			}
			if moved > 0 {
				t.Errorf("relabelled %s: %d of %d ranks moved", label, moved, len(want))
			}
		}
	}

	// All scores tied: under the full protocol each query ranks at exactly
	// 1 + (filtered pool − 1)/2, the filtered pool being every entity that
	// is not another known answer, in both directions. NaN ties with NaN, so
	// a model that scores everything NaN ranks the same; NaN sorts below
	// every number, so a model that scores exactly the answers NaN (the
	// other answers are known positives, filtered) ranks every rival above.
	answers := map[kg.Triple]bool{}
	for _, q := range g.Test {
		answers[q] = true
	}
	for _, c := range []struct {
		label  string
		m      constModel
		beaten bool
	}{
		{"const", constModel{v: 0.25}, false},
		{"all NaN", constModel{v: math.NaN()}, false},
		{"NaN answers", constModel{v: 0.25, nan: answers}, true},
	} {
		ranks := checkAgainstOracle(t, c.label, c.m, c.m, g, g.Test, full, Options{Filter: filter, Seed: 9, Workers: 4})
		for i, q := range g.Test {
			others := [2]int{len(filter.Tails(q.H, q.R)) - 1, len(filter.Heads(q.R, q.T)) - 1}
			for side, dir := range [2]string{"tail", "head"} {
				rivals := float64(g.NumEntities - others[side] - 1)
				want := 1 + rivals/2
				if c.beaten {
					want = 1 + rivals
				}
				if got := ranks[2*i+side]; got != want {
					t.Errorf("%s model, %s query %d: rank %v, want %v", c.label, dir, i, got, want)
				}
			}
		}
	}
}

// blockQuery.countWithin is resumable: fed a pool of exact scores (the zero
// Bound) in strips of any length it ends on the rank naiveRank gives the
// whole pool. The pools here repeat ids (the
// provider contract says sorted, not distinct), so an answer or a known
// positive can sit on both sides of a strip edge, and every strip length from
// one candidate to the whole pool puts the edges everywhere. Each trial's
// pool has its own length, id range and entity count (the position index's
// length), and known and answer ids fall below the pool's smallest id and
// above its largest, inside the index and past its end; one index serves
// every sweep, so an entry a sweep fails to clear shows in a later one.
func TestStripCountsMatchNaiveRank(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	level := func() float64 { // few levels, ties everywhere, NaN among them
		if v := rng.Intn(6); v < 5 {
			return float64(v)
		}
		return math.NaN()
	}
	var x poolIndex
	var below, above, pastIndex int
	for trial := 0; trial < 200; trial++ {
		n, lo, span := 1+rng.Intn(40), int32(rng.Intn(50+4*trial)), 1+rng.Intn(40)
		pool := make([]int32, n)
		scores := make([]float64, n)
		for i := range pool {
			pool[i] = lo + int32(rng.Intn(span))
			scores[i] = level()
		}
		slices.Sort(pool)
		bottom, top := max(0, pool[0]-4), pool[n-1]+4
		var known []int32
		for e := bottom; e <= top; e++ {
			if rng.Intn(3) == 0 {
				known = append(known, e)
			}
		}
		truth, trueScore := bottom+int32(rng.Intn(int(top-bottom)+1)), level()
		entities := int(pool[n-1]) + 1 + rng.Intn(5) // the index ends anywhere past the pool
		want := naiveRank(pool, scores, trueScore, truth, known)
		for strip := 1; strip <= n; strip++ {
			q := blockQuery{truth: truth, score: trueScore, known: known}
			x.index(pool, entities)
			if strip == 1 {
				switch {
				case truth < pool[0]:
					below++
				case int(truth) >= len(x.pos):
					pastIndex++
				case truth > pool[n-1]:
					above++
				}
			}
			var w window // the zero Bound: the scores are exact, and none is rescored
			for j0 := 0; j0 < n; j0 += strip {
				j1 := min(j0+strip, n)
				q.countWithin(&x, j0, nil, &w) // an empty strip counts nothing
				q.countWithin(&x, j0, scores[j0:j1], &w)
			}
			x.clear()
			if got := q.rank(); got != want {
				t.Fatalf("trial %d, strips of %d: rank %v, naive %v (pool %v, known %v, truth %d)",
					trial, strip, got, want, pool, known, truth)
			}
		}
	}
	if below == 0 || above == 0 || pastIndex == 0 {
		t.Fatalf("answers below the pool %d, above it inside the index %d, past the index %d: want each > 0",
			below, above, pastIndex)
	}
}

// Under the full protocol every pool is one slice, so a block mixes the
// relations of a run of triples and both directions of each. The models whose
// scorers keep per-relation state (TuckER's relation matrix, ConvE's
// reciprocal relation and conv stack, RotatE's routed true-triple scores) and
// plain third-party models replayed by batchAdapter must come out of such
// blocks with the oracle's metrics — at any worker count, which moves the
// cuts between blocks, and with pools swept in one strip or in many.
func TestMixedRelationBlocksMatchOracle(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	full := NewFullProvider(g.NumEntities)
	var ms []kgc.Model
	for _, name := range []string{"TuckER", "ConvE", "RotatE"} {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	ms = append(ms, plainModel{ms[0]}, plainModel{ms[1]}, formulaModel{})

	// 40 triples over 8 relations: a handful per relation. Blocks of the
	// real size take the pool in one strip; blocks of 12 triples (24 directed
	// queries) over a 96-float buffer take it four candidates at a time, so
	// the native scorers' multi-query, multi-relation blocks cross 75 strip
	// edges each.
	opts := Options{Filter: filter, Seed: 9, MaxQueries: 40}
	for _, strips := range []string{"one strip", "many strips"} {
		if strips == "many strips" {
			shrinkChunks(t, 24, 96)
		}
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			mixed := 0
			for _, task := range newPlan(subsample(g.Test, opts), full, opts).tasks {
				mixed = max(mixed, task.relations)
			}
			if mixed < 3 {
				t.Fatalf("%s, %d workers: no task mixes 3 relations (most: %d)", strips, workers, mixed)
			}
		}
		for _, m := range ms {
			var first Result
			for _, workers := range []int{1, 2, 7} {
				opts.Workers = workers
				label := fmt.Sprintf("%s/%s/%d workers", m.Name(), strips, workers)
				checkAgainstOracle(t, label, m, m, g, g.Test, full, opts)
				res := Evaluate(m, g, g.Test, full, opts)
				if workers == 1 {
					first = res
				} else if res.Metrics != first.Metrics || res.CandidatesScored != first.CandidatesScored {
					t.Errorf("%s: %+v (%d scored) != one worker's %+v (%d scored)",
						label, res.Metrics, res.CandidatesScored, first.Metrics, first.CandidatesScored)
				}
			}
		}
	}
}
