package service

import (
	"testing"
	"time"

	"kgeval/internal/eval"
)

func TestJobTransitions(t *testing.T) {
	cases := []struct {
		from, to State
		ok       bool
	}{
		{StateQueued, StateRunning, true},
		{StateQueued, StateCanceled, true},
		{StateQueued, StateSucceeded, false},
		{StateQueued, StateFailed, false},
		{StateRunning, StateSucceeded, true},
		{StateRunning, StateFailed, true},
		{StateRunning, StateCanceled, true},
		{StateRunning, StateQueued, false},
		{StateSucceeded, StateRunning, false},
		{StateSucceeded, StateCanceled, false},
		{StateFailed, StateRunning, false},
		{StateCanceled, StateRunning, false},
		{StateCanceled, StateSucceeded, false},
	}
	for _, c := range cases {
		if got := validTransition(c.from, c.to); got != c.ok {
			t.Errorf("validTransition(%s, %s) = %v, want %v", c.from, c.to, got, c.ok)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	j := newJob("j1", JobSpec{}, nil)
	if j.State() != StateQueued {
		t.Fatalf("new job state = %s, want queued", j.State())
	}
	if !j.transition(StateRunning, nil) {
		t.Fatal("queued → running rejected")
	}
	if j.Status().StartedAt == nil {
		t.Fatal("running job has no StartedAt")
	}
	if !j.succeed([]eval.Result{{Metrics: eval.Metrics{MRR: 0.5, Queries: 10}}}, true) {
		t.Fatal("running → succeeded rejected")
	}
	st := j.Status()
	if st.State != StateSucceeded || st.Result == nil || st.Result.MRR != 0.5 || !st.CacheHit {
		t.Fatalf("terminal status = %+v", st)
	}
	if st.FinishedAt == nil {
		t.Fatal("terminal job has no FinishedAt")
	}
	if j.succeed([]eval.Result{{}}, false) {
		t.Fatal("double succeed accepted")
	}
	if j.Cancel() {
		t.Fatal("cancel of terminal job reported a state change")
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	j := newJob("j1", JobSpec{}, nil)
	if !j.Cancel() {
		t.Fatal("cancel of queued job rejected")
	}
	if j.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State())
	}
	// The worker's pickup must now be refused, and the context must be done
	// so any in-flight evaluation would stop.
	if j.transition(StateRunning, nil) {
		t.Fatal("canceled job transitioned to running")
	}
	select {
	case <-j.ctx.Done():
	default:
		t.Fatal("canceled job context not done")
	}
}

func TestJobCancelWhileRunning(t *testing.T) {
	j := newJob("j1", JobSpec{}, nil)
	j.transition(StateRunning, nil)
	if !j.Cancel() {
		t.Fatal("cancel of running job rejected")
	}
	if j.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State())
	}
	// The worker's completion attempt after cancellation must be a no-op.
	if j.succeed([]eval.Result{{}}, false) {
		t.Fatal("succeed after cancel accepted")
	}
	if j.Status().Result != nil {
		t.Fatal("canceled job carries a result")
	}
}

func TestJobSubscribeOrdering(t *testing.T) {
	j := newJob("j1", JobSpec{}, nil)
	ch, unsub := j.Subscribe()
	defer unsub()

	go func() {
		j.transition(StateRunning, nil)
		for i := 1; i <= 20; i++ {
			j.setProgress(i, 20)
		}
		j.succeed([]eval.Result{{Metrics: eval.Metrics{MRR: 1}}}, false)
	}()

	var events []Event
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				goto done
			}
			events = append(events, ev)
		case <-deadline:
			t.Fatal("subscription never closed")
		}
	}
done:
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	if events[0].Type != "state" || events[0].State != StateRunning {
		t.Fatalf("first event = %+v, want running state event", events[0])
	}
	lastDone := -1
	for _, ev := range events {
		if ev.Type != "progress" {
			continue
		}
		if ev.Progress == nil || ev.Progress.Done <= lastDone {
			t.Fatalf("progress not monotone: %+v after done=%d", ev, lastDone)
		}
		lastDone = ev.Progress.Done
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateSucceeded {
		t.Fatalf("last event = %+v, want succeeded state event", last)
	}
	if j.State() != StateSucceeded {
		t.Fatalf("final state = %s", j.State())
	}
}

func TestJobSubscribeAfterTerminal(t *testing.T) {
	j := newJob("j1", JobSpec{}, nil)
	j.Cancel()
	ch, unsub := j.Subscribe()
	defer unsub()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("terminal subscription delivered an event")
		}
	case <-time.After(time.Second):
		t.Fatal("terminal subscription not closed immediately")
	}
}
