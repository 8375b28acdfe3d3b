package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestHastenedWakeupKeepsItsPlace: a moved wakeup fires at its new time, and
// among the events due then where its Sleep's sequence number puts it —
// after a wakeup scheduled before that Sleep, before one scheduled after.
func TestHastenedWakeupKeepsItsPlace(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var order []string
	note := func(p *Proc) { order = append(order, p.Name()+"@"+p.Now().String()) }
	sleeper := func(d time.Duration) func(*Proc) {
		return func(p *Proc) { p.Sleep(d); note(p) }
	}
	env.Go("early", sleeper(5*time.Second))
	mover := env.Go("moved", sleeper(10*time.Second))
	env.Go("late", sleeper(5*time.Second))
	gate := NewSignal(env)
	waiter := env.Go("waiter", func(p *Proc) { gate.Wait(p); note(p) })
	env.Go("mover", func(p *Proc) {
		p.Sleep(time.Second)
		if mover.Hasten(20 * time.Second) {
			t.Error("Hasten moved a wakeup later")
		}
		if waiter.Hasten(2 * time.Second) {
			t.Error("Hasten moved a process parked on a Signal")
		}
		if !mover.Hasten(5 * time.Second) {
			t.Error("Hasten did not move the 10s wakeup to 5s")
		}
		gate.Broadcast()
	})
	env.Run()
	want := []string{"waiter@1s", "early@5s", "moved@5s", "late@5s"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestHastenLeavesNoTrace: the wakeup a move replaces leaves the queue. No
// Pending count, Deadlocked answer, Stats.Events count or RunUntil resting
// point sees it, and a move to a time already past lands on the current one.
func TestHastenLeavesNoTrace(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var woke time.Duration
	p := env.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * time.Second)
		woke = p.Now()
	})
	stuck := NewSignal(env) // nobody broadcasts: its waiter stays parked
	env.Go("stuck", func(p *Proc) { stuck.Wait(p) })
	env.RunUntil(3 * time.Second)
	before := env.Stats()
	if !p.Hasten(time.Second) || env.Pending() != 1 || env.Now() != 3*time.Second {
		t.Fatalf("after Hasten(1s) at 3s: %d pending, clock %v; want 1, 3s", env.Pending(), env.Now())
	}
	if p.Hasten(time.Second) {
		t.Fatal("a second Hasten to the same time moved the wakeup again")
	}
	env.RunUntil(50 * time.Second)
	st := env.Stats()
	if woke != 3*time.Second || env.Now() != 3*time.Second {
		t.Fatalf("woke at %v, clock resting at %v; want 3s and 3s", woke, env.Now())
	}
	if env.Pending() != 0 || !env.Deadlocked() || st.Events != before.Events+1 || st.PeakPending != before.PeakPending {
		t.Fatalf("%d pending, deadlocked %v, %d events (%d before), peak queue %d (%d before); want 0, true, one more, unchanged",
			env.Pending(), env.Deadlocked(), st.Events, before.Events, st.PeakPending, before.PeakPending)
	}
}

// TestCloseUnwindsAHastenedSleeper: a moved sleeper still parked at Close
// is unwound once, and its coroutine ends.
func TestCloseUnwindsAHastenedSleeper(t *testing.T) {
	before := settledGoroutines()
	env := NewEnv()
	unwound := 0
	p := env.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(100 * time.Second)
		t.Error("Sleep returned during Close")
	})
	env.RunUntil(time.Second)
	if !p.Hasten(50 * time.Second) {
		t.Fatal("Hasten did not move the wakeup")
	}
	env.RunUntil(10 * time.Second)
	env.Close()
	if unwound != 1 {
		t.Fatalf("unwound %d times, want 1", unwound)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("NumGoroutine = %d after Close, want the starting %d", got, before)
	}
}
