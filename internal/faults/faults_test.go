package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Enabled reports whether any site is armed.
func Enabled() bool { return armedCount.Load() != 0 }

// counters reads an armed site's counters: how often it was checked and how
// often it fired. Zero for unarmed sites (Arm resets them).
func counters(name string) (hits, fires int64) {
	if s := lookup(name); s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.hits, s.fires
	}
	return 0, 0
}

func TestDisabledIsFree(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("Enabled with no armed sites")
	}
	if err := Hit("nowhere"); err != nil {
		t.Fatalf("unarmed Hit returned %v", err)
	}
	// Arming one site must not affect others.
	Arm("a", Plan{Action: Error})
	defer Reset()
	if err := Hit("b"); err != nil {
		t.Fatalf("hit of a different site returned %v", err)
	}
}

func TestEveryNthDeterministic(t *testing.T) {
	defer Reset()
	Arm("s", Plan{Action: Error, Every: 3})
	var fired []int
	for i := 1; i <= 9; i++ {
		if Hit("s") != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired on %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on %v, want %v", fired, want)
		}
	}
	if hits, fires := counters("s"); hits != 9 || fires != 3 {
		t.Fatalf("hits=%d fires=%d, want 9/3", hits, fires)
	}
}

func TestProbabilityDeterministic(t *testing.T) {
	defer Reset()
	run := func() []bool {
		Arm("p", Plan{Action: Error, Prob: 0.5, Seed: 42})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Hit("p") != nil
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probability stream not deterministic at hit %d", i+1)
		}
		if a[i] {
			fires++
		}
	}
	if fires < 16 || fires > 48 {
		t.Fatalf("p=0.5 fired %d/64 times, implausibly far from half", fires)
	}
}

func TestLimit(t *testing.T) {
	defer Reset()
	Arm("l", Plan{Action: Error, Every: 1, Limit: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if Hit("l") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("limit=2 fired %d times", n)
	}
}

func TestInjectedError(t *testing.T) {
	defer Reset()
	Arm("e", Plan{Action: Error})
	err := Hit("e")
	var inj *Injected
	if !errors.As(err, &inj) || inj.Site != "e" {
		t.Fatalf("got %v, want *Injected for site e", err)
	}
	Arm("e2", Plan{Action: Error, Err: errors.New("custom")})
	if err := Hit("e2"); err == nil || err.Error() != "custom" {
		t.Fatalf("custom error not returned: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	defer Reset()
	Arm("boom", Plan{Action: Panic})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if _, ok := r.(*Injected); !ok {
			t.Fatalf("panicked with %T, want *Injected", r)
		}
	}()
	Hit("boom") //nolint:errcheck // panics
}

func TestStallRespectsContext(t *testing.T) {
	defer Reset()
	Arm("slow", Plan{Action: Stall, Stall: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := HitCtx(ctx, "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall interrupted with %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall ignored the context deadline")
	}
	// A short stall completes and returns nil.
	Arm("quick", Plan{Action: Stall, Stall: time.Millisecond})
	if err := Hit("quick"); err != nil {
		t.Fatalf("completed stall returned %v", err)
	}
}

func TestParse(t *testing.T) {
	defer Reset()
	spec := "service/fit=panic,limit=3; store/open=error,every=2,msg=disk gone ;service/worker=stall,stall=50ms"
	if err := Parse(spec); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Parse armed nothing")
	}
	if err := Hit("store/open"); err != nil {
		t.Fatalf("store/open every=2 fired on first hit: %v", err)
	}
	if err := Hit("store/open"); err == nil || err.Error() != "faults: disk gone" {
		t.Fatalf("store/open second hit: %v", err)
	}
	for _, bad := range []string{"noequals", "x=frobnicate", "x=error,every", "x=error,every=z", "x=error,zz=1"} {
		if err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestDisarm(t *testing.T) {
	Arm("d", Plan{Action: Error})
	Arm("d2", Plan{Action: Panic})
	Reset()
	if Enabled() {
		t.Fatal("still enabled after Reset")
	}
	if err := Hit("d"); err != nil {
		t.Fatalf("disarmed site fired: %v", err)
	}
}

// FuzzParse: no -faults spec panics the parser, whatever it arms stays
// consistent with the armed-site count Hit's fast path reads, and Reset
// disarms it all.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"service/fit=panic,limit=3;store/build=error,every=2;service/worker=stall,stall=5s",
		"a=error,p=0.5,seed=7;a=stall,stall=1ms,msg=x", "noequals", "x=error,every", "=panic", ";;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		defer Reset()
		Parse(spec) //nolint:errcheck // a rejected spec may have armed its earlier entries
		mu.Lock()
		armed, n := armedCount.Load(), len(sites)
		mu.Unlock()
		if int(armed) != n {
			t.Fatalf("Parse(%q): %d sites armed, the fast path counts %d", spec, n, armed)
		}
		Reset()
		if Enabled() {
			t.Fatalf("Parse(%q): still enabled after Reset", spec)
		}
	})
}
