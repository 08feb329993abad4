package lru

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func value(v int) func(int) (int, error) { return func(int) (int, error) { return v, nil } }

// An entry that alone costs more than the capacity is served, not kept, and
// leaves every resident entry where it was.
func TestOversizeEntryEvictsNothingElse(t *testing.T) {
	c := New[string, int](10)
	for _, k := range []string{"a", "b", "c"} {
		c.Resolve(c.Reserve(k, 3, 0), nil, value(1))
	}
	big := c.Reserve("big", 11, 0)
	if v, o, err := c.Resolve(big, nil, value(7)); v != 7 || o != Miss || err != nil {
		t.Fatalf("oversize resolve = %d, %v, %v; want 7, miss, nil", v, o, err)
	}
	if st := c.Stats(); st.Entries != 3 || st.Used != 9 || st.Evictions != 1 {
		t.Fatalf("after an oversize reserve: %+v, want 3 entries, 9 used, 1 eviction", st)
	}
	if _, ok := c.Lookup("big"); ok {
		t.Fatal("the oversize entry was filed")
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("resident %q was evicted by the oversize entry", k)
		}
	}
	if again := c.Reserve("big", 11, 0); again == big {
		t.Fatal("a second reserve of the oversize key found the first one's slot")
	}
}

// A build that panics fails its slot like an error does: the builder and
// every caller waiting on it get a *PanicError with the value and the stack,
// nothing is left in flight, and the next caller of the key builds again.
func TestPanickingBuildReleasesItsKey(t *testing.T) {
	c := New[string, int](10)
	s := c.Reserve("k", 1, 0)
	building, joined, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	const joiners = 4
	var wg sync.WaitGroup
	errs := make([]error, joiners+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.Resolve(s, nil, func(int) (int, error) {
			close(building)
			<-release
			panic("poison")
		})
	}()
	for i := 1; i <= joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-building
			_, o, err := c.Resolve(s, func(Outcome) { joined <- struct{}{} }, value(0))
			if o != Join {
				t.Errorf("joiner %d: outcome %v, want a join", i, o)
			}
			errs[i] = err
		}()
	}
	for range joiners {
		<-joined
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "poison" || !strings.Contains(string(pe.Stack), "TestPanickingBuildReleasesItsKey") {
			t.Fatalf("caller %d: err = %v, want a *PanicError with the value and the panicking frame", i, err)
		}
	}
	if st := c.Stats(); st.InFlight != 0 || st.Entries != 0 || st.Joins != joiners {
		t.Fatalf("after the panic: %+v, want nothing in flight or filed, %d joins", st, joiners)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, o, err := c.Resolve(c.Reserve("k", 1, 0), nil, value(5)); v != 5 || o != Miss || err != nil {
			t.Errorf("next caller: %d, %v, %v; want a fresh build of 5", v, o, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the next caller of a key whose build panicked is still blocked")
	}
}
