package eval

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/recommender"
)

// fittedProviders returns the four providers over one fitted L-WD recommender.
func fittedProviders(t *testing.T, g *kg.Graph, ns int) []CandidateProvider {
	t.Helper()
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	sets := recommender.BuildStatic(lwd.Scores(), g, recommender.DefaultStaticOpts())
	return []CandidateProvider{
		&RandomProvider{NumEntities: g.NumEntities, N: ns},
		&StaticProvider{Sets: sets, N: ns},
		&ProbabilisticProvider{Scores: lwd.Scores(), N: ns},
		NewFullProvider(g.NumEntities),
	}
}

// sweep draws every (relation, direction) pool once, tail before head.
func sweep(p CandidateProvider, numRelations int, rng *rand.Rand) [][]int32 {
	var pools [][]int32
	for r := int32(0); r < int32(numRelations); r++ {
		pools = append(pools, p.Candidates(r, true, rng), p.Candidates(r, false, rng))
	}
	return pools
}

// TestProvidersConcurrentCandidates holds every provider to the
// CandidateProvider contract: concurrent callers, each with its own rng, get
// exactly the pools a lone caller with that rng gets.
func TestProvidersConcurrentCandidates(t *testing.T) {
	g := evalGraph(t)
	const callers = 8
	// want comes from a second set of provider instances, so each instance
	// under test meets its first callers concurrently.
	reference := fittedProviders(t, g, 30)
	for pi, fresh := range fittedProviders(t, g, 30) {
		var want [callers][][]int32
		for c := range want {
			want[c] = sweep(reference[pi], g.NumRelations, rand.New(rand.NewSource(int64(c))))
		}
		var wg sync.WaitGroup
		var got [callers][][]int32
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[c] = sweep(fresh, g.NumRelations, rand.New(rand.NewSource(int64(c))))
			}()
		}
		wg.Wait()
		for c := range got {
			for i := range want[c] {
				if !slices.Equal(got[c][i], want[c][i]) {
					t.Fatalf("%s: caller %d pool %d differs under concurrency (%d vs %d candidates)",
						fresh.Name(), c, i, len(got[c][i]), len(want[c][i]))
				}
			}
		}
	}
}

// poolDigest hashes every pool of a compiled plan in group order.
func poolDigest(p *plan) string {
	h := fnv.New64a()
	for _, g := range p.groups {
		fmt.Fprintf(h, "r%d|", g.r)
		for _, pool := range [][]int32{g.tailPool, g.headPool} {
			for _, id := range pool {
				fmt.Fprintf(h, "%d,", id)
			}
			fmt.Fprint(h, "|")
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPlanPoolsGolden pins the pools newPlan draws for one graph and seed.
// The draw sequence — one generator seeded Seed+1, relations ascending, tail
// before head, and the exact rng consumption of sample.Uniform/Weighted — is
// part of the protocol: estimates are reproducible from a seed across
// versions only while it holds. The digests were recorded from the
// implementation that preceded the typed-heap/bitset samplers; a change that
// moves them is a protocol change and must say so.
func TestPlanPoolsGolden(t *testing.T) {
	g := evalGraph(t)
	golden := map[string]string{
		"Random":        "7f01a57fd1b49235",
		"Static":        "a98e6dfa40385835",
		"Probabilistic": "966b534fefad475e",
	}
	for _, p := range fittedProviders(t, g, 30) {
		want, ok := golden[p.Name()]
		if !ok {
			continue
		}
		if got := poolDigest(newPlan(g.Test, p, Options{Seed: 7})); got != want {
			t.Errorf("%s pools digest %s, want %s", p.Name(), got, want)
		}
	}
}

// A plan that finds its pool set in the memo is the plan that drew it: its
// groups hold the very slices (so samePool, the cut into tasks and every rank
// are what a draw gives), and they are the golden pools. A different seed or
// a different set of relations is a different draw and misses.
func TestPoolMemoHitInstallsTheDrawnSlices(t *testing.T) {
	g := evalGraph(t)
	for _, p := range fittedProviders(t, g, 30)[:3] {
		memo := NewPoolMemo(1 << 20)
		remembered := memo.Remember(p, 30)
		opts := Options{Seed: 7}
		drawn, first, second := newPlan(g.Test, p, opts), newPlan(g.Test, remembered, opts), newPlan(g.Test, remembered, opts)
		if first.poolsCached || !second.poolsCached {
			t.Fatalf("%s: cached = %v then %v, want a draw then a hit", p.Name(), first.poolsCached, second.poolsCached)
		}
		if poolDigest(first) != poolDigest(drawn) || poolDigest(second) != poolDigest(drawn) {
			t.Errorf("%s: pools through the memo differ from a bare draw's", p.Name())
		}
		for gi := range first.groups {
			a, b := &first.groups[gi], &second.groups[gi]
			if !samePool(a.tailPool, b.tailPool) || !samePool(a.headPool, b.headPool) {
				t.Fatalf("%s: relation %d: the hit did not install the first plan's slices", p.Name(), a.r)
			}
		}
		if !slices.Equal(first.tasks, second.tasks) {
			t.Errorf("%s: a hit cut the plan into other tasks", p.Name())
		}
		fewer := slices.DeleteFunc(slices.Clone(g.Test), func(q kg.Triple) bool { return q.R == g.Test[0].R })
		for what, miss := range map[string]*plan{
			"another seed":      newPlan(g.Test, remembered, Options{Seed: 8}),
			"one relation less": newPlan(fewer, remembered, opts),
			"another n_s":       newPlan(g.Test, memo.Remember(p, 31), opts),
		} {
			if miss.poolsCached {
				t.Errorf("%s: %s was served from the memo", p.Name(), what)
			}
		}
		if st := memo.sets.Stats(); st.Entries != 4 || st.Used <= 0 || st.Used > st.Cap {
			t.Errorf("%s: memo holds %d sets in %d bytes, want the 4 drawn", p.Name(), st.Entries, st.Used)
		}
	}
}

// An n_s sized to wrap the charge of 2·|R| pools of n ids in int must not
// file full-|E| pools past the memo's bound: the charge saturates, and a set
// charged more than the capacity is served but not kept.
func TestPoolMemoChargeDoesNotWrap(t *testing.T) {
	g := evalGraph(t)
	rels := map[int32]bool{}
	for _, q := range g.Test {
		rels[q.R] = true
	}
	n := int(math.MaxUint64/uint64(8*len(rels)) + 1) // 8·|R|·n wraps to a few bytes
	memo := NewPoolMemo(64 << 10)
	remembered := memo.Remember(&RandomProvider{NumEntities: g.NumEntities, N: n}, n)
	setBytes := int64(0)
	for seed := int64(1); seed <= 20; seed++ {
		p := newPlan(g.Test, remembered, Options{Seed: seed})
		setBytes = 0
		for _, g := range p.groups {
			setBytes += 4 * int64(len(g.tailPool)+len(g.headPool))
		}
	}
	if st := memo.sets.Stats(); int64(st.Entries)*setBytes > st.Cap || st.Used > st.Cap {
		t.Fatalf("memo keeps %d sets of %d bytes of ids each, charged %d bytes in all, under a %d-byte capacity",
			st.Entries, setBytes, st.Used, st.Cap)
	}
}
