package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/lru"
	"kgeval/internal/recommender"
)

// frameworkCache is an engine holding nothing but a fitted-Framework cache of
// the given capacity, as NewEngine builds it.
func frameworkCache(capacity int) *Engine {
	return &Engine{frameworks: lru.New[fitKey, *core.Framework](int64(capacity))}
}

// getFramework resolves key in e's framework cache the way fitFramework
// does, with build in place of a Fit, and reports whether the caller was
// spared the build.
func getFramework(e *Engine, key fitKey, build func() (*core.Framework, error)) (*core.Framework, bool, error) {
	fw, o, err := e.frameworks.Resolve(e.frameworks.Reserve(key, 1, nil), nil,
		func(*core.Framework) (*core.Framework, error) { return build() })
	return fw, o != lru.Miss, err
}

func fwBuilder(builds *atomic.Int64, delay time.Duration) func() (*core.Framework, error) {
	return func() (*core.Framework, error) {
		builds.Add(1)
		time.Sleep(delay)
		return core.New(recommender.NewLWD(), 10, 1), nil
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := frameworkCache(4)
	key := fitKey{Recommender: "L-WD", NumSamples: 10}
	var builds atomic.Int64
	const callers = 8

	var wg sync.WaitGroup
	hits := make([]bool, callers)
	fws := make([]*core.Framework, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fw, hit, err := getFramework(c, key, fwBuilder(&builds, 20*time.Millisecond))
			if err != nil {
				t.Error(err)
			}
			fws[i], hits[i] = fw, hit
		}(i)
	}
	wg.Wait()

	if builds.Load() != 1 {
		t.Fatalf("build ran %d times for one key, want 1", builds.Load())
	}
	nhits := 0
	for i := 1; i < callers; i++ {
		if fws[i] != fws[0] {
			t.Fatal("callers received different frameworks for the same key")
		}
	}
	for _, h := range hits {
		if h {
			nhits++
		}
	}
	if nhits != callers-1 {
		t.Fatalf("%d hits, want %d", nhits, callers-1)
	}
	st := c.cacheStats()
	if st.Hits != callers-1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Every waiter joined the one in-flight build: all hits were
	// single-flight dedups, and no build is still running.
	if st.SingleFlight != callers-1 {
		t.Fatalf("singleflight = %d, want %d", st.SingleFlight, callers-1)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight = %d after all builds finished, want 0", st.InFlight)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := frameworkCache(2)
	var builds atomic.Int64
	get := func(rec string) {
		t.Helper()
		if _, _, err := getFramework(c, fitKey{Recommender: rec}, fwBuilder(&builds, 0)); err != nil {
			t.Fatal(err)
		}
	}
	get("a") // miss: [a]
	get("b") // miss: [b a]
	get("a") // hit:  [a b]
	get("c") // miss, evicts b: [c a]
	get("a") // hit:  [a c]
	get("b") // miss again (evicted): [b a]
	if builds.Load() != 4 {
		t.Fatalf("build ran %d times, want 4 (a, b, c, b-again)", builds.Load())
	}
	st := c.cacheStats()
	if st.Hits != 2 || st.Misses != 4 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Two entries fell to LRU pressure: b (pushed out by c) and c (pushed
	// out by b's return). Completed sequential builds never overlap.
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.SingleFlight != 0 || st.InFlight != 0 {
		t.Fatalf("sequential gets reported singleflight=%d inflight=%d, want 0/0", st.SingleFlight, st.InFlight)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := frameworkCache(2)
	key := fitKey{Recommender: "L-WD"}
	boom := errors.New("fit failed")
	if _, _, err := getFramework(c, key, func() (*core.Framework, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	var builds atomic.Int64
	fw, hit, err := getFramework(c, key, fwBuilder(&builds, 0))
	if err != nil || fw == nil {
		t.Fatalf("retry after failed build: fw=%v err=%v", fw, err)
	}
	if hit {
		t.Fatal("retry after failed build reported a cache hit")
	}
	if builds.Load() != 1 {
		t.Fatal("retry did not rebuild")
	}
}

// A failed build counts once, against the job that ran it: the jobs that
// joined it fail with its error, panic included, count nothing, and leave
// nothing cached. The build here runs outside fitFramework and holds until
// every job has joined it, so no failure is the jobs' own.
func TestFitFailureCountsOnlyTheBuild(t *testing.T) {
	e, err := NewEngine(EngineConfig{Graph: serviceGraph(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := e.withDefaults(JobSpec{})
	key := fitKey{Recommender: spec.Recommender, NumSamples: spec.NumSamples}

	release, built := make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := e.frameworks.Resolve(e.frameworks.Reserve(key, 1, nil), nil,
			func(*core.Framework) (*core.Framework, error) {
				<-release
				panic("poison graph")
			})
		built <- err
	}()
	for e.cacheStats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	const joiners = 4
	errs := make(chan error, joiners)
	for range joiners {
		go func() {
			_, hit, err := e.fitFramework(&Job{ctx: context.Background()}, spec)
			if !hit {
				err = errors.New("a joiner ran its own build")
			}
			errs <- err
		}()
	}
	for e.cacheStats().SingleFlight < joiners {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-built
	for range joiners {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "fit panicked: poison graph") {
			t.Errorf("joiner's error = %v, want the build's panic", err)
		}
	}
	if n := e.metrics.fitFailures.Value(); n != 0 {
		t.Errorf("kgeval_fit_failures_total = %d from joiners alone, want 0", n)
	}
	if st := e.cacheStats(); st.Size != 0 || st.InFlight != 0 {
		t.Errorf("cache after the failed build: %+v, want empty", st)
	}
}
