package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestBlocksCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 8, 100, 1001} {
			hits := make([]atomic.Int32, n)
			inUse := make([]atomic.Int32, Workers(n))
			Blocks(n, func(w, lo, hi int) {
				if w < 0 || w >= Workers(n) || lo >= hi || hi > n {
					t.Errorf("procs=%d n=%d: bad call (%d, %d, %d)", procs, n, w, lo, hi)
					return
				}
				// One goroutine per worker id: never two blocks at once.
				if inUse[w].Add(1) != 1 {
					t.Errorf("procs=%d n=%d: worker %d ran two blocks concurrently", procs, n, w)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				inUse[w].Add(-1)
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, hits[i].Load())
				}
			}
		}
	}
}

// Run's explicit form: at most the asked-for workers (one goroutine per id,
// even beyond GOMAXPROCS), blocks no larger than size when there is more
// than one worker, every index exactly once.
func TestRunHonorsWorkersAndSize(t *testing.T) {
	for _, tc := range []struct{ n, workers, size int }{
		{0, 4, 1}, {1, 4, 1}, {5, 16, 1}, {100, 3, 1}, {100, 3, 7}, {100, 1, 7}, {100, 0, 0}, {9, 4, 0},
	} {
		nw := max(1, min(tc.workers, tc.n))
		hits := make([]atomic.Int32, tc.n)
		inUse := make([]atomic.Int32, nw)
		Run(tc.n, tc.workers, tc.size, func(w, lo, hi int) {
			if w < 0 || w >= nw || lo >= hi || hi > tc.n || (nw > 1 && hi-lo > max(1, tc.size)) {
				t.Errorf("%+v: bad call (%d, %d, %d)", tc, w, lo, hi)
				return
			}
			if inUse[w].Add(1) != 1 {
				t.Errorf("%+v: worker %d ran two blocks concurrently", tc, w)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			inUse[w].Add(-1)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("%+v: index %d visited %d times", tc, i, hits[i].Load())
			}
		}
	}
}

func TestBlocksRelaysPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
	}()
	Blocks(64, func(w, lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}
