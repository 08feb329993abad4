package obs

import (
	"runtime"
	"sync"
	"time"
)

// StartRuntimeSampler launches a goroutine that periodically samples Go
// runtime health — heap, GC pauses, goroutine count — into gauges on reg,
// and returns a function that stops it. Sampling is pull-from-runtime,
// push-to-gauge rather than GaugeFunc because runtime.ReadMemStats
// stops the world: it must run at a bounded cadence (every 10 s), not once
// per metric on every /metrics scrape.
//
// Gauges (all kgeval_runtime_*):
//
//	goroutines             runtime.NumGoroutine
//	heap_alloc_bytes       live heap
//	heap_sys_bytes         heap obtained from the OS
//	heap_objects           live objects
//	gc_pause_last_seconds  most recent stop-the-world pause
//	gc_pause_total_seconds cumulative STW pause time
//	gc_runs_total          completed GC cycles
//	next_gc_bytes          heap size that triggers the next cycle
//
// The first sample is taken synchronously so the gauges are live before the
// first scrape.
func StartRuntimeSampler(reg *Registry) (stop func()) {
	g := struct {
		goroutines, heapAlloc, heapSys, heapObjects        *Gauge
		gcPauseLast, gcPauseTotal, gcRuns, nextGC, sampled *Gauge
	}{
		goroutines:   reg.Gauge("kgeval_runtime_goroutines", "Live goroutines at the last runtime sample."),
		heapAlloc:    reg.Gauge("kgeval_runtime_heap_alloc_bytes", "Bytes of live heap objects at the last runtime sample."),
		heapSys:      reg.Gauge("kgeval_runtime_heap_sys_bytes", "Heap bytes obtained from the OS."),
		heapObjects:  reg.Gauge("kgeval_runtime_heap_objects", "Live heap objects at the last runtime sample."),
		gcPauseLast:  reg.Gauge("kgeval_runtime_gc_pause_last_seconds", "Duration of the most recent GC stop-the-world pause."),
		gcPauseTotal: reg.Gauge("kgeval_runtime_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time."),
		gcRuns:       reg.Gauge("kgeval_runtime_gc_runs_total", "Completed GC cycles."),
		nextGC:       reg.Gauge("kgeval_runtime_next_gc_bytes", "Heap size at which the next GC cycle triggers."),
		sampled:      reg.Gauge("kgeval_runtime_sampled_unixtime", "Unix time of the last runtime sample."),
	}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		g.goroutines.Set(float64(runtime.NumGoroutine()))
		g.heapAlloc.Set(float64(ms.HeapAlloc))
		g.heapSys.Set(float64(ms.HeapSys))
		g.heapObjects.Set(float64(ms.HeapObjects))
		if ms.NumGC > 0 {
			g.gcPauseLast.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
		}
		g.gcPauseTotal.Set(float64(ms.PauseTotalNs) / 1e9)
		g.gcRuns.Set(float64(ms.NumGC))
		g.nextGC.Set(float64(ms.NextGC))
		g.sampled.Set(float64(time.Now().Unix()))
	}
	sample()

	quit := make(chan struct{})
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit) }) }
}
