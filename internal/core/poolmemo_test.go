package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
)

// fitted returns a Framework over L-WD with n_s = 40 and seed 17, fitted on g.
func fitted(t *testing.T, g *kg.Graph) *Framework {
	t.Helper()
	fw := New(recommender.NewLWD(), 40, 17)
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	return fw
}

// estimate runs fw.Estimate under a trace and also reports what the plan's
// eval.pool_draw span says about where the pools came from.
func estimate(t *testing.T, fw *Framework, m kgc.Model, g *kg.Graph, split []kg.Triple, s Strategy, opts eval.Options) (res eval.Result, cached bool) {
	t.Helper()
	store := trace.NewStore(0, 4096)
	ctx, root := store.StartTrace(context.Background(), "estimate")
	opts.Ctx = ctx
	res = fw.Estimate(m, g, split, s, opts)
	root.End()
	for _, sp := range root.Recorder().Snapshot().Spans {
		if sp.Name == "eval.pool_draw" {
			if (sp.Attr("workers") == 0) != (sp.Attr("cached") == true) {
				t.Fatalf("pool_draw span says cached %v on %v workers", sp.Attr("cached"), sp.Attr("workers"))
			}
			return res, sp.Attr("cached") == true
		}
	}
	t.Fatal("no eval.pool_draw span")
	return res, false
}

// same fails the test unless two passes returned the same numbers.
func same(t *testing.T, what string, got, want eval.Result) {
	t.Helper()
	if got.Metrics != want.Metrics || got.CandidatesScored != want.CandidatesScored {
		t.Fatalf("%s: %+v over %d candidates, want %+v over %d", what, got.Metrics, got.CandidatesScored, want.Metrics, want.CandidatesScored)
	}
}

// poolSpy is a third-party model that notes which pool slices it is scored
// against: the adapter hands it each strip of a pool as the slice itself, so
// the address of a strip's first id names the pool's backing array.
type poolSpy struct {
	kgc.Model
	mu   *sync.Mutex
	seen map[*int32]bool
}

func (s poolSpy) note(cands []int32) {
	if len(cands) > 1 { // a true head is scored over the adapter's own one-id buffer
		s.mu.Lock()
		s.seen[&cands[0]] = true
		s.mu.Unlock()
	}
}

func (s poolSpy) ScoreTails(h, r int32, cands []int32, out []float64) {
	s.note(cands)
	s.Model.ScoreTails(h, r, cands, out)
}

func (s poolSpy) ScoreHeads(r, t int32, cands []int32, out []float64) {
	s.note(cands)
	s.Model.ScoreHeads(r, t, cands, out)
}

// The second Estimate over the same ground draws nothing: it ranks against
// the very slices the first call drew and returns the same numbers, which are
// also a fresh Framework's cold result and a memo-less eval.Evaluate's. The
// key holds a window's relations, not its queries: the first call over a
// window draws only if no earlier window had the same relations.
func TestSecondEstimateReusesTheFirstCallsPools(t *testing.T) {
	g, _ := coreGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	fw := fitted(t, g)
	oneLess := slices.DeleteFunc(slices.Clone(g.Test), func(q kg.Triple) bool { return q.R == g.Test[0].R })
	windows := [][]kg.Triple{g.Test[:20], oneLess, g.Test[60:220], g.Test}
	drawn := map[string]bool{}
	for _, s := range Strategies() {
		for _, seed := range []int64{0, 5, 6} {
			for wi, window := range windows {
				var rels []int32
				for _, q := range window {
					if !slices.Contains(rels, q.R) {
						rels = append(rels, q.R)
					}
				}
				slices.Sort(rels)
				key := fmt.Sprint(s, seed, rels)
				what := fmt.Sprintf("%v/seed %d/window %d", s, seed, wi)
				spy := func() poolSpy {
					return poolSpy{kgc.NewDistMult(g, 8, 3), new(sync.Mutex), map[*int32]bool{}}
				}
				opts := eval.Options{Filter: filter, Seed: seed}
				m1, m2, m3 := spy(), spy(), spy()
				first, hit1 := estimate(t, fw, m1, g, window, s, opts)
				second, hit2 := estimate(t, fw, m2, g, window, s, opts)
				if hit1 != drawn[key] || !hit2 {
					t.Fatalf("%s: cached = %v then %v, want %v then a hit", what, hit1, hit2, drawn[key])
				}
				drawn[key] = true
				same(t, what+": second call", second, first)
				if len(m1.seen) == 0 || len(m2.seen) != len(m1.seen) {
					t.Fatalf("%s: the calls saw %d and %d pool slices", what, len(m1.seen), len(m2.seen))
				}
				for p := range m2.seen {
					if !m1.seen[p] {
						t.Fatalf("%s: the second call ranked against a slice the first did not draw", what)
					}
				}
				cold, hit := estimate(t, fitted(t, g), m3, g, window, s, opts)
				same(t, what+": fresh framework", cold, first)
				for p := range m3.seen {
					if hit || m1.seen[p] {
						t.Fatalf("%s: a fresh framework was served another's pools", what)
					}
				}
				same(t, what+": eval.Evaluate over Provider", eval.Evaluate(m3, g, window, fw.Provider(s), fw.seeded(opts)), first)
			}
		}
	}
}

// Everything a draw reads is in the key: another seed, strategy, n_s or set
// of relations misses, and what it then draws is what a cold Framework draws.
func TestChangingAnyKeyPartMisses(t *testing.T) {
	g, _ := coreGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m := kgc.NewComplEx(g, 8, 3)
	fw := fitted(t, g)
	base := eval.Options{Filter: filter}
	oneLess := slices.DeleteFunc(slices.Clone(g.Test), func(q kg.Triple) bool { return q.R == g.Test[0].R })
	warm, _ := estimate(t, fw, m, g, g.Test, StrategyProbabilistic, base)

	cases := []struct {
		what  string
		ns    int
		split []kg.Triple
		s     Strategy
		seed  int64
	}{
		{"another seed", 40, g.Test, StrategyProbabilistic, 18},
		{"another strategy", 40, g.Test, StrategyStatic, 0},
		{"another n_s", 41, g.Test, StrategyProbabilistic, 0},
		{"one relation less", 40, oneLess, StrategyProbabilistic, 0},
	}
	for _, c := range cases {
		opts := base
		opts.Seed = c.seed
		fw.NumSamples = c.ns
		got, hit := estimate(t, fw, m, g, c.split, c.s, opts)
		if hit {
			t.Errorf("%s: served from the memo", c.what)
		}
		cold := fitted(t, g)
		cold.NumSamples = c.ns
		want, _ := estimate(t, cold, m, g, c.split, c.s, opts)
		same(t, c.what, got, want)
		if again, hit := estimate(t, fw, m, g, c.split, c.s, opts); !hit {
			t.Errorf("%s: its own second call missed", c.what)
		} else {
			same(t, c.what+", again", again, want)
		}
	}
	fw.NumSamples = 40
	again, hit := estimate(t, fw, m, g, g.Test, StrategyProbabilistic, base)
	if !hit {
		t.Error("the first key no longer hits")
	}
	same(t, "first key", again, warm)
}

// The memo belongs to the fitted graph: Fit on the same graph keeps it, Fit
// on another drops every set with the static sets.
func TestRefitOnAnotherGraphDropsThePools(t *testing.T) {
	g1, _ := coreGraph(t)
	g2, _ := coreGraph(t)
	g2.Train = g2.Train[:len(g2.Train)/2]
	m := kgc.NewDistMult(g1, 8, 3)
	opts := eval.Options{Filter: kg.NewFilterIndex(g1.Train, g1.Valid, g1.Test)}
	fw := fitted(t, g1)
	for _, s := range Strategies() {
		estimate(t, fw, m, g1, g1.Test, s, opts)
	}
	if err := fw.Fit(g1); err != nil {
		t.Fatal(err)
	}
	if _, hit := estimate(t, fw, m, g1, g1.Test, StrategyStatic, opts); !hit {
		t.Fatal("re-Fit on the same graph dropped the pools")
	}
	if err := fw.Fit(g2); err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		got, hit := estimate(t, fw, m, g2, g2.Test, s, opts)
		if hit {
			t.Fatalf("%v: Fit on a second graph kept the first graph's pools", s)
		}
		want, _ := estimate(t, fitted(t, g2), m, g2, g2.Test, s, opts)
		same(t, s.String()+" after the refit", got, want)
	}
}

// With room for two plans' pools the memo keeps the two most recently used,
// and a plan that does not fit at all is served without being kept.
func TestPoolMemoEvictsLeastRecentlyUsed(t *testing.T) {
	g, _ := coreGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m := kgc.NewDistMult(g, 8, 3)
	fw := fitted(t, g)
	rels := map[int32]bool{}
	for _, q := range g.Test {
		rels[q.R] = true
	}
	onePlan := 2 * len(rels) * fw.NumSamples * 4 // a Random plan's pools, exactly
	cold := fitted(t, g)
	cold.pools = eval.NewPoolMemo(0)
	hits := func(seed int64) bool {
		t.Helper()
		opts := eval.Options{Filter: filter, Seed: seed}
		got, hit := estimate(t, fw, m, g, g.Test, StrategyRandom, opts)
		want, kept := estimate(t, cold, m, g, g.Test, StrategyRandom, opts)
		if kept {
			t.Fatal("a memo of no bytes kept a plan")
		}
		same(t, fmt.Sprintf("seed %d", seed), got, want)
		return hit
	}

	fw.pools = eval.NewPoolMemo(2*onePlan + onePlan/2)
	const a, b, c = 1, 2, 3
	for i, step := range []struct {
		seed int64
		hit  bool
	}{
		{a, false}, {b, false}, {a, true}, // kept: b, a
		{c, false},           // b, the least recently used, goes: a, c
		{a, true}, {c, true}, // both stayed
		{b, false}, // a goes: c, b
		{c, true}, {a, false},
	} {
		if got := hits(step.seed); got != step.hit {
			t.Fatalf("step %d (seed %d): hit = %v, want %v", i, step.seed, got, step.hit)
		}
	}

	fw = fitted(t, g)
	fw.pools = eval.NewPoolMemo(onePlan - 1)
	if hits(a) || hits(a) {
		t.Fatal("a plan larger than the bound was kept")
	}
}

// One Framework serves concurrent Estimates over mixed keys, hitting, missing
// and evicting at once, and every one of them returns the serial numbers.
// Run under -race -count=10.
func TestConcurrentEstimatesShareTheMemo(t *testing.T) {
	g, _ := coreGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m := kgc.NewDistMult(g, 8, 3)
	type key struct {
		s    Strategy
		seed int64
	}
	var keys []key
	want := map[key]eval.Result{}
	serial := fitted(t, g)
	for _, s := range Strategies() {
		for _, seed := range []int64{1, 2} {
			k := key{s, seed}
			keys = append(keys, k)
			want[k] = serial.Estimate(m, g, g.Test, s, eval.Options{Filter: filter, Seed: seed, Workers: 2})
		}
	}
	for _, bound := range []int{poolMemoBytes, 8 << 10} { // everything fits; two or three plans fit
		fw := fitted(t, g)
		fw.pools = eval.NewPoolMemo(bound)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2*len(keys); i++ {
					k := keys[(i+w)%len(keys)]
					got := fw.Estimate(m, g, g.Test, k.s, eval.Options{Filter: filter, Seed: k.seed, Workers: 2})
					if got.Metrics != want[k].Metrics || got.CandidatesScored != want[k].CandidatesScored {
						t.Errorf("bound %d, goroutine %d, %v/seed %d: %+v, serial %+v", bound, w, k.s, k.seed, got.Metrics, want[k].Metrics)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Estimates that miss one key at once draw once: the first plan draws, the
// others join that draw and are reported as hits (no worker drew for them),
// and every one returns the serial numbers. Run under -race -count=10.
func TestConcurrentMissesDrawOnce(t *testing.T) {
	g, _ := coreGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m := kgc.NewDistMult(g, 8, 3)
	opts := eval.Options{Filter: filter, Seed: 9, Workers: 2}
	want := fitted(t, g).Estimate(m, g, g.Test, StrategyProbabilistic, opts)
	plans := func(outcome string) int64 {
		return obs.Default.Counter("kgeval_eval_pool_plans_total", "", obs.Label{Key: "outcome", Value: outcome}).Value()
	}
	misses, hits := plans("miss"), plans("hit")

	fw := fitted(t, g)
	const callers = 8
	store := trace.NewStore(0, 4096)
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]eval.Result, callers)
	roots := make([]*trace.Span, callers)
	for i := range callers {
		ctx, root := store.StartTrace(context.Background(), "estimate")
		roots[i] = root
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.Ctx = ctx
			<-start
			results[i] = fw.Estimate(m, g, g.Test, StrategyProbabilistic, o)
			root.End()
		}()
	}
	close(start)
	wg.Wait()

	drew := 0
	for i, root := range roots {
		same(t, fmt.Sprintf("caller %d", i), results[i], want)
		for _, sp := range root.Recorder().Snapshot().Spans {
			if sp.Name != "eval.pool_draw" {
				continue
			}
			if workers := sp.Attr("workers").(int); workers > 0 {
				drew++
				if sp.Attr("cached") != false {
					t.Errorf("caller %d drew on %d workers but says cached", i, workers)
				}
			} else if sp.Attr("cached") != true {
				t.Errorf("caller %d drew on no worker but says not cached", i)
			}
		}
	}
	if drew != 1 {
		t.Errorf("%d of %d concurrent callers drew, want 1", drew, callers)
	}
	if m, h := plans("miss")-misses, plans("hit")-hits; m != 1 || h != callers-1 {
		t.Errorf("pool_plans_total moved by miss %d, hit %d; want 1 and %d", m, h, callers-1)
	}
}

// The memo lives and dies with its Framework: after twenty have been fitted,
// used and dropped, the heap is back within two frameworks of where it began.
func TestDroppedFrameworksTakeTheirPoolsAlong(t *testing.T) {
	g, _ := coreGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m := kgc.NewDistMult(g, 8, 3)
	use := func() *Framework {
		fw := fitted(t, g)
		for _, s := range Strategies() {
			for seed := int64(1); seed <= 8; seed++ {
				fw.Estimate(m, g, g.Test, s, eval.Options{Filter: filter, Seed: seed})
			}
		}
		return fw
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	use() // whatever the first use leaves behind for good is not a framework's
	base := heap()
	kept := use()
	one := heap() - base
	runtime.KeepAlive(kept)
	kept = nil
	for i := 0; i < 20; i++ {
		use()
	}
	if after := heap(); after > base+2*one {
		t.Errorf("after 20 dropped frameworks the heap holds %d B over its baseline; one framework is %d B", after-base, one)
	}
}
