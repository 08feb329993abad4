package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/recommender"
	"kgeval/internal/sparse"
)

// thirdPartyProvider is a CandidateProvider this package knows nothing
// about, so one with no split draw: it reads the rng a data-dependent number
// of times per pool, which only a draw in stream order reproduces.
type thirdPartyProvider struct{ numEntities int }

func (thirdPartyProvider) Name() string { return "ThirdParty" }
func (p thirdPartyProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	var out []int32
	for e := int32(rng.Intn(5)); int(e) < p.numEntities; e += 1 + int32(rng.Intn(9)) {
		out = append(out, e)
	}
	return out
}

// planPools lists a plan's pools in draw order.
func planPools(p *plan) [][]int32 {
	var pools [][]int32
	for _, g := range p.groups {
		pools = append(pools, g.tailPool, g.headPool)
	}
	return pools
}

// TestPoolDrawWorkersInvisible: the pools of a plan are, element for element,
// the pools one goroutine draws by calling Candidates in draw order on the
// Seed+1 stream, whatever Workers is, for every provider.
func TestPoolDrawWorkersInvisible(t *testing.T) {
	g := evalGraph(t)
	providers := append(fittedProviders(t, g, 30), thirdPartyProvider{g.NumEntities})
	var rels []int32 // the split's relations, ascending: the draw order
	for _, q := range g.Test {
		rels = append(rels, q.R)
	}
	slices.Sort(rels)
	rels = slices.Compact(rels)
	for _, p := range providers {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed + 1))
			var want [][]int32
			for _, r := range rels {
				want = append(want, p.Candidates(r, true, rng), p.Candidates(r, false, rng))
			}
			for _, workers := range []int{1, 2, 8} {
				got := planPools(newPlan(g.Test, p, Options{Seed: seed, Workers: workers}))
				if len(got) != len(want) {
					t.Fatalf("%s: %d pools, want %d", p.Name(), len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s seed %d: pool %d drawn on %d workers differs from the serial draw",
							p.Name(), seed, i, workers)
					}
					if !slices.IsSorted(got[i]) {
						t.Fatalf("%s seed %d: pool %d is not ascending", p.Name(), seed, i)
					}
				}
			}
		}
	}
}

// Only the Probabilistic draw has work to do off the stream, so only it
// takes the workers it is offered.
func TestPoolDrawWorkerCount(t *testing.T) {
	g := evalGraph(t)
	for _, p := range fittedProviders(t, g, 30) {
		pl := newPlan(g.Test, p, Options{Workers: 1})
		for _, tc := range []struct{ workers, want int }{{1, 1}, {3, 3}, {64, 2 * len(pl.groups)}} {
			want := tc.want
			if p.Name() != "Probabilistic" {
				want = 1
			}
			if got := pl.drawPools(p, Options{Workers: tc.workers}); got != want {
				t.Errorf("%s: drew on %d goroutines with Workers = %d, want %d", p.Name(), got, tc.workers, want)
			}
		}
	}
}

// recovered runs f and returns what it panicked with, as text.
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// The chaos suite's guarantee — a fault or a panic in the draw fails the one
// job that hit it — needs both to reach newPlan's caller: the injected fault
// from the caller's own goroutine, a panic in a drawing goroutine through
// par.Run's relay, with the lock released so the other workers can finish.
func TestPoolDrawFaultAndPanicReachCaller(t *testing.T) {
	g := evalGraph(t)
	provs := fittedProviders(t, g, 30)
	t.Cleanup(faults.Reset)
	for _, action := range []faults.Action{faults.Error, faults.Panic} {
		faults.Arm(faults.SitePoolDraw, faults.Plan{Action: action, Limit: 1})
		msg := recovered(func() { newPlan(g.Test, provs[2], Options{Workers: 4}) })
		if !strings.Contains(msg, "injected") || !strings.Contains(msg, faults.SitePoolDraw) {
			t.Errorf("%v fault at the draw: newPlan panicked with %q", action, msg)
		}
	}
	faults.Reset()

	// A score matrix fitted for one relation: the draw for any other indexes
	// past its columns, inside the lock, on a worker goroutine.
	narrow := recommender.NewScoreMatrix(sparse.NewBinaryCSR(2, g.NumEntities, []sparse.Entry{{Row: 0, Col: 0}, {Row: 1, Col: 1}}), 1)
	broken := &ProbabilisticProvider{Scores: narrow, N: 30}
	for _, workers := range []int{1, 4} {
		msg := recovered(func() { newPlan(g.Test, broken, Options{Workers: workers}) })
		if !strings.Contains(msg, "out of range") {
			t.Errorf("%d workers: a panic in the draw surfaced as %q", workers, msg)
		}
		if workers > 1 && !strings.Contains(msg, "par worker stack") {
			t.Errorf("%d workers: the panic did not come through par.Run's relay: %q", workers, msg)
		}
	}
}

// The draw's goroutines are joined before newPlan returns, cancelled or not:
// a pass cancelled before, during or after its draw leaves none behind.
func TestCancelDuringDrawLeavesNoGoroutine(t *testing.T) {
	g := evalGraph(t)
	prob := fittedProviders(t, g, 30)[2]
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	before := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i)*20*time.Microsecond, cancel)
		Evaluate(formulaModel{}, g, g.Test, prob, Options{Filter: filter, Seed: 2, Workers: 8, Ctx: ctx})
		timer.Stop()
		cancel()
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after 40 cancelled passes", before, runtime.NumGoroutine())
		}
	}
}
