package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// canary measures how fast the machine is right now, in the one currency
// every workload here spends: gather rows of an |E| × dim float64 table into
// a block, then dot the block against a query. It is harness code — nothing
// under internal/ runs in it — so no change to the program can move it.
//
// The sandbox this benchmark runs in is a small VM on a shared host whose
// speed drifts by 20–35 % over minutes (README.md, "Noise"): ten runs of
// unchanged code spread up to 25 % on raw wall-clock rates, which is the
// whole of the largest bound a metric may have. Sampled at every boundary of
// a run, the canary's median follows that drift, so each run reports its four
// time-based metrics at reference machine speed: times divided, rates
// multiplied, by median canary time / CanaryRefMS. In drifting minutes that
// cut the spread across seeds by a fifth to a half; in calm minutes it
// changes nothing. The factor and the raw values are logged with every run.
type canary struct {
	table, block, q []float64
	ids             []int
	dim             int
	samples         []float64 // ms
}

var canarySink float64

func newCanary(rows, dim int, seed int64) *canary {
	rng := rand.New(rand.NewSource(seed))
	c := &canary{
		table: make([]float64, rows*dim), block: make([]float64, rows*dim),
		q: make([]float64, dim), ids: rng.Perm(rows), dim: dim,
	}
	for i := range c.table {
		c.table[i] = rng.Float64()
	}
	for i := range c.q {
		c.q[i] = rng.Float64()
	}
	return c
}

// canaryPasses gather-and-dot passes over the table make one sample (~11 ms
// at bench scale on two workers).
const canaryPasses = 8

// sample takes n samples. Like an evaluation pass, a sample forks one worker
// per GOMAXPROCS over disjoint shares of the rows and joins them, so a vCPU
// the host is withholding slows the canary the way it slows a pass.
func (c *canary) sample(n int) {
	workers := runtime.GOMAXPROCS(0)
	sums := make([]float64, workers)
	for ; n > 0; n-- {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo, hi := w*len(c.ids)/workers, (w+1)*len(c.ids)/workers
				sums[w] = c.pass(lo, hi)
			}()
		}
		wg.Wait()
		c.samples = append(c.samples, ms(time.Since(start)))
	}
	for _, s := range sums {
		canarySink += s
	}
}

// pass gathers rows ids[lo:hi] into the block and dots them against q,
// canaryPasses times over.
func (c *canary) pass(lo, hi int) float64 {
	d, sum := c.dim, 0.0
	for pass := 0; pass < canaryPasses; pass++ {
		for j := lo; j < hi; j++ {
			id := c.ids[j]
			copy(c.block[j*d:(j+1)*d], c.table[id*d:(id+1)*d])
		}
		for j := lo; j < hi; j++ {
			acc := 0.0
			for k, v := range c.block[j*d : (j+1)*d] {
				acc += v * c.q[k]
			}
			sum += acc
		}
	}
	return sum
}
