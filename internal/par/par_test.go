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
