package sim

import (
	"fmt"
	"testing"
	"time"
)

// sinkRun drives a fixed workload of concurrent emitting processes and
// returns the event stream each registered sink observed.
func sinkRun() (first, second []TraceEvent) {
	env := NewEnv()
	env.AddEventSink(func(ev TraceEvent) { first = append(first, ev) })
	env.AddEventSink(func(ev TraceEvent) { second = append(second, ev) })
	for i := 0; i < 5; i++ {
		i := i
		env.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
			// Staggered then colliding wakeups: several processes emit at the
			// same virtual instant, so ordering relies on the scheduler's
			// deterministic FIFO tie-break.
			p.Sleep(time.Duration(i%2) * time.Second)
			env.Emit(KindRackLoad, p.Name(), func() string { return fmt.Sprintf("load %d", i) })
			p.Sleep(time.Second)
			env.Emit("log", p.Name(), func() string { return fmt.Sprintf("step %d", i) })
			env.Emit(KindBurnFinish, p.Name(), func() string { return fmt.Sprintf("burn %d", i) })
		})
	}
	env.Run()
	return first, second
}

// TestEventSinkOrderDeterministic asserts the AddEventSink contract: sinks
// fire in registration order for every event (so all sinks see the identical
// stream), and that stream is byte-for-byte reproducible across runs even
// with concurrent processes emitting at the same virtual instant.
func TestEventSinkOrderDeterministic(t *testing.T) {
	eq := func(a, b []TraceEvent) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	f1, s1 := sinkRun()
	if len(f1) == 0 {
		t.Fatal("no events observed")
	}
	if !eq(f1, s1) {
		t.Errorf("sinks observed different streams:\nfirst:  %v\nsecond: %v", f1, s1)
	}
	f2, _ := sinkRun()
	if !eq(f1, f2) {
		t.Errorf("event stream not deterministic across runs:\nrun1: %v\nrun2: %v", f1, f2)
	}

	// Emit preserves the given kind.
	kinds := map[string]int{}
	for _, ev := range f1 {
		kinds[ev.Kind]++
	}
	if kinds["log"] != 5 || kinds[KindRackLoad] != 5 || kinds[KindBurnFinish] != 5 {
		t.Errorf("kind counts = %v, want 5 of each", kinds)
	}
}
