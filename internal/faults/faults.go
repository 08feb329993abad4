// Package faults is a deterministic fault-injection registry for chaos
// testing the evaluation service: named sites in the pipeline call Hit, and
// a test (or the kgevald -faults flag) arms a site with a Plan describing
// when to fire (every Nth hit, or a seeded per-hit probability) and what to
// do (return an error, panic, or stall).
//
// The package is dependency-free and designed so the production path is
// unmeasurable: with no site armed, Hit is a single atomic load and an
// immediate return. Firing is fully deterministic — an every-Nth plan fires
// on exact hit indices, and a probability plan derives each hit's outcome
// from splitmix64(seed, hit index), so the same arming always produces the
// same fault sequence regardless of scheduling.
//
// Sites are plain strings; the Site* constants name the ones wired into
// the repository's pipeline (framework-cache Fit, engine workers, candidate
// pool draw, entity-store build).
package faults

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical sites wired into the evaluation pipeline. Arm is open to any
// string, so new sites need no registration here.
const (
	// SiteFit fires inside the framework cache's Fit build, before the
	// recommender is fitted (service layer).
	SiteFit = "service/fit"
	// SiteWorker fires in an engine worker immediately after a job
	// transitions to running, before evaluation starts (service layer).
	SiteWorker = "service/worker"
	// SitePoolDraw fires at plan compile time, before the 2·|R| candidate
	// pool draws (eval layer). The plan compiler has no error return, so
	// error-mode faults surface as panics there (recovered by the engine's
	// worker panic handler into a failed job).
	SitePoolDraw = "eval/pooldraw"
	// SiteStoreBuild fires in store.FromRows, the in-memory entity-store
	// build on the batch-scoring hot path.
	SiteStoreBuild = "store/build"
)

// Action selects what a firing site does.
type Action int

const (
	// Error makes Hit return the plan's error.
	Error Action = iota
	// Panic makes Hit panic with the plan's error.
	Panic
	// Stall makes Hit sleep for Plan.Stall (cut short by the context passed
	// to HitCtx, in which case the context's error is returned), then
	// return nil.
	Stall
)

func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Plan describes when an armed site fires and what it does.
type Plan struct {
	Action Action
	// Every fires on every Nth hit (1 = every hit, the default when both
	// Every and Prob are zero). Mutually exclusive with Prob.
	Every int
	// Prob fires each hit independently with this probability, derived
	// deterministically from Seed and the hit index.
	Prob float64
	// Seed drives the Prob decision stream.
	Seed int64
	// Limit caps the total number of fires (0 = unlimited).
	Limit int
	// Stall is the Action Stall sleep duration.
	Stall time.Duration
	// Err overrides the injected error; nil uses an *Injected default.
	Err error
}

// Injected is the default error an armed site fires with. Tests and
// callers can detect injected faults with errors.As.
type Injected struct {
	Site   string
	Action Action
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faults: injected %s at %s", e.Action, e.Site)
}

type site struct {
	mu    sync.Mutex
	plan  Plan
	hits  int64
	fires int64
}

var (
	// armedCount is the production fast path: zero means no site is armed
	// anywhere, so Hit returns after this one atomic load.
	armedCount atomic.Int32

	mu    sync.Mutex
	sites = map[string]*site{}
)

// Arm installs (or replaces) the plan for a site and resets its counters.
func Arm(name string, p Plan) {
	if p.Every <= 0 && p.Prob <= 0 {
		p.Every = 1
	}
	mu.Lock()
	if _, ok := sites[name]; !ok {
		armedCount.Add(1)
	}
	sites[name] = &site{plan: p}
	mu.Unlock()
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	armedCount.Add(-int32(len(sites)))
	sites = map[string]*site{}
	mu.Unlock()
}

func lookup(name string) *site {
	mu.Lock()
	defer mu.Unlock()
	return sites[name]
}

// Hit checks a site with no cancellation context; see HitCtx.
func Hit(name string) error { return HitCtx(context.Background(), name) }

// HitCtx checks a site and, if its plan decides this hit fires, performs
// the armed action: Error returns the plan's error, Panic panics with it,
// Stall sleeps (bounded by ctx) and returns nil or ctx's error. Unarmed
// sites — the production case — cost one atomic load.
func HitCtx(ctx context.Context, name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	s := lookup(name)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.hits++
	fire := false
	switch {
	case s.plan.Limit > 0 && s.fires >= int64(s.plan.Limit):
	case s.plan.Every > 0:
		fire = s.hits%int64(s.plan.Every) == 0
	case s.plan.Prob > 0:
		fire = unitFloat(s.plan.Seed, s.hits) < s.plan.Prob
	}
	if fire {
		s.fires++
	}
	p := s.plan
	s.mu.Unlock()
	if !fire {
		return nil
	}
	err := p.Err
	if err == nil {
		err = &Injected{Site: name, Action: p.Action}
	}
	switch p.Action {
	case Panic:
		panic(err)
	case Stall:
		if ctx == nil {
			ctx = context.Background()
		}
		t := time.NewTimer(p.Stall)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return err
}

// unitFloat maps (seed, n) to a uniform float64 in [0, 1) via splitmix64 —
// the deterministic decision stream behind probability plans.
func unitFloat(seed, n int64) float64 {
	z := uint64(seed) + uint64(n)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Parse arms sites from a flag-friendly spec and returns an error on bad
// syntax. The grammar, entries separated by ';':
//
//	site=action[,key=value...]
//
// where action is error, panic or stall, and keys are every=N, p=F,
// seed=N, limit=N, stall=DURATION, msg=TEXT (msg sets the injected error
// text). Example:
//
//	service/fit=panic,limit=3;store/build=error,every=2;service/worker=stall,stall=5s
func Parse(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return fmt.Errorf("faults: bad entry %q (want site=action[,key=value...])", entry)
		}
		parts := strings.Split(rest, ",")
		var p Plan
		switch parts[0] {
		case "error":
			p.Action = Error
		case "panic":
			p.Action = Panic
		case "stall":
			p.Action = Stall
		default:
			return fmt.Errorf("faults: unknown action %q in %q (want error, panic or stall)", parts[0], entry)
		}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("faults: bad option %q in %q", kv, entry)
			}
			var err error
			switch k {
			case "every":
				p.Every, err = strconv.Atoi(v)
			case "p":
				p.Prob, err = strconv.ParseFloat(v, 64)
			case "seed":
				p.Seed, err = strconv.ParseInt(v, 10, 64)
			case "limit":
				p.Limit, err = strconv.Atoi(v)
			case "stall":
				p.Stall, err = time.ParseDuration(v)
			case "msg":
				p.Err = fmt.Errorf("faults: %s", v)
			default:
				return fmt.Errorf("faults: unknown option %q in %q", k, entry)
			}
			if err != nil {
				return fmt.Errorf("faults: bad value for %s in %q: %w", k, entry, err)
			}
		}
		Arm(name, p)
	}
	return nil
}
