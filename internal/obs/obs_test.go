package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("same (name, labels) returned a different counter")
	}
	if other := r.Counter("c_total", "a counter", Label{"k", "v"}); other == c {
		t.Fatal("different labels returned the same counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}

	// nil instruments are inert, so optional metrics need no guards.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Add(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as both counter and gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // le=1 gets {0.5, 1}; le=2 gets 1.5; le=5 gets 3; +Inf gets 100
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("count=%d sum=%g, want 5/106", s.Count, s.Sum)
	}
}

// TestConcurrentHammer drives one counter, gauge and histogram from many
// goroutines the way parallel eval workers do, checking the totals are
// exact. Run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolve through the registry inside the goroutine too: the
			// lookup path must be as safe as the observation path.
			c := r.Counter("hammer_total", "")
			g := r.Gauge("hammer_gauge", "")
			h := r.Histogram("hammer_seconds", "", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if v := r.Counter("hammer_total", "").Value(); v != total {
		t.Fatalf("counter = %d, want %d", v, total)
	}
	if v := r.Gauge("hammer_gauge", "").Value(); v != total {
		t.Fatalf("gauge = %g, want %d", v, total)
	}
	s := r.Histogram("hammer_seconds", "", nil).Snapshot()
	if s.Count != total {
		t.Fatalf("histogram count = %d, want %d", s.Count, total)
	}
	// le buckets are inclusive: le=0.25 catches both 0 and 0.25.
	want := []int64{total / 2, total / 4, total / 4, 0}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if s.Sum != float64(workers)*perWorker/4*1.5 {
		// each worker observes 0, .25, .5, .75 in rotation: 1.5 per 4 obs
		t.Fatalf("histogram sum = %g", s.Sum)
	}
}
