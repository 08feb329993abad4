// Package par runs index-range loops on all cores. It exists for the
// recommender-side preprocessing (sparse products, per-column discretization),
// whose iterations are independent and write only to locations determined by
// their own index — so results do not depend on how many workers ran or on
// which worker took which block.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// blocksPerWorker is how finely [0, n) is cut relative to the worker count:
// enough blocks that a worker stuck on a heavy one (a hub entity's row, a
// popular relation's column) does not leave the others idle, few enough that
// claiming a block stays negligible next to processing it.
const blocksPerWorker = 8

// Workers returns the number of goroutines Blocks uses for n items:
// runtime.GOMAXPROCS(0), but never more than n and never less than 1.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// Blocks covers [0, n) with contiguous blocks and calls fn(worker, lo, hi)
// once per block from Workers(n) goroutines, returning when every block is
// done. Each worker id in [0, Workers(n)) belongs to exactly one goroutine, so
// fn may index per-worker scratch by it without locking; blocks are claimed
// dynamically, so which worker runs which block varies between calls. With
// one worker everything runs on the calling goroutine. A panic in fn is
// re-raised on the caller (with the worker's stack appended) once the other
// workers have finished.
func Blocks(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	nw := Workers(n)
	if nw == 1 {
		fn(0, 0, n)
		return
	}
	size := max(1, n/(blocksPerWorker*nw))
	var next atomic.Int64
	var panicked atomic.Pointer[string]
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					msg := fmt.Sprintf("%v\n\npar worker stack:\n%s", r, debug.Stack())
					panicked.CompareAndSwap(nil, &msg)
				}
			}()
			for {
				lo := int(next.Add(int64(size))) - size
				if lo >= n {
					return
				}
				fn(w, lo, min(lo+size, n))
			}
		}()
	}
	wg.Wait()
	if msg := panicked.Load(); msg != nil {
		panic(*msg)
	}
}
