// Package par runs index-range loops on several goroutines: the one worker
// pool and the one panic relay in the tree. It serves the recommender-side
// preprocessing (sparse products, per-column discretization) and the
// evaluation pass's scoring tasks — loops whose iterations are independent
// and write only to locations determined by their own index, so results do
// not depend on how many workers ran or on which worker took which block.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// blocksPerWorker is how finely Blocks cuts [0, n) relative to the worker
// count: enough blocks that a worker stuck on a heavy one (a hub entity's
// row, a popular relation's column) does not leave the others idle, few
// enough that claiming a block stays negligible next to processing it.
const blocksPerWorker = 8

// Workers returns the number of goroutines Blocks uses for n items:
// runtime.GOMAXPROCS(0), but never more than n and never less than 1.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// Blocks covers [0, n) from Workers(n) goroutines, in blocks sized so each
// worker claims about blocksPerWorker of them; see Run for the contract.
func Blocks(n int, fn func(worker, lo, hi int)) {
	nw := Workers(n)
	Run(n, nw, n/(blocksPerWorker*nw), fn)
}

// Run covers [0, n) with contiguous blocks of at most size indices (at least
// one) and calls fn(worker, lo, hi) once per block from at most workers
// goroutines, returning when every block is done. Each worker id in
// [0, min(workers, n)) belongs to exactly one goroutine, so fn may index
// per-worker scratch by it without locking; blocks are claimed dynamically,
// so which worker runs which block varies between calls. With one worker
// the whole range is a single block on the calling goroutine. A panic in fn
// is re-raised on the caller — where it can be recovered, which it cannot on
// a goroutine nobody joins — with the worker's stack appended, once the
// other workers have finished.
func Run(n, workers, size int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	size = max(1, size)
	var next atomic.Int64
	var panicked atomic.Pointer[string]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
