package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serviceScenario drives one background service through a randomized
// workload: three producers hand it work at random instants, several at the
// same instant, and its body sleeps between steps and sometimes wakes itself,
// so wakes land on it idle, pending and running. start installs the service
// under test and returns the call that hands it work; body is what the
// service runs per job (Signal variants) or per item (Queue variants). The
// result is every event in dispatch order as "t proc" plus what each process
// did when it ran; a divergence in the dispatch order also shows up as a
// divergence in the random draws.
func serviceScenario(seed int64, start func(env *Env, work func(p *Proc, item int)) (handOff func(item int))) string {
	env := NewEnv()
	defer env.Close()
	env.Seed(seed)
	var b strings.Builder
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var handOff func(int)
	handOff = start(env, func(p *Proc, item int) {
		fmt.Fprintf(&b, "  %s runs on %d\n", p.Name(), item)
		for i := env.Rand().Intn(3); i > 0; i-- {
			p.Sleep(ms(env.Rand().Intn(3)))
			fmt.Fprintf(&b, "  %s step\n", p.Name())
			if env.Rand().Intn(4) == 0 {
				handOff(-1) // the service prods itself
			}
		}
	})
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("producer%d", i), func(p *Proc) {
			for j := 0; j < 6; j++ {
				p.Sleep(ms(env.Rand().Intn(3)))
				fmt.Fprintf(&b, "  producer%d hands off %d\n", i, j)
				handOff(10*i + j)
			}
		})
	}
	for len(env.events) > 0 && env.strong > 0 {
		ev := env.events[0]
		fmt.Fprintf(&b, "%d %s\n", ev.t, ev.p.name)
		env.Step()
	}
	fmt.Fprintf(&b, "end %v live %d\n", env.Now(), env.Live())
	return b.String()
}

// signalLoop is the wait loop a Daemon replaces: a GoDaemon parked on a
// Signal, woken by Broadcast. Its first dispatch, which only parks it, is
// taken before the scenario starts.
func signalLoop(env *Env, work func(p *Proc, item int)) func(int) {
	sig := NewSignal(env)
	env.GoDaemon("svc", func(p *Proc) {
		for {
			sig.Wait(p)
			sig.Clear()
			work(p, 0)
		}
	})
	env.Step()
	return func(int) { sig.Broadcast() }
}

// queueLoop is the Queue pop loop a Daemon replaces.
func queueLoop(env *Env, work func(p *Proc, item int)) func(int) {
	q := NewQueue[int](env)
	env.GoDaemon("svc", func(p *Proc) {
		for {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			work(p, v)
		}
	})
	env.Step()
	return func(v int) { q.Push(v) }
}

// wakeCounts tallies the states Wake found a Daemon in.
type wakeCounts struct{ idle, pending, running int }

func (c *wakeCounts) note(d *Daemon) {
	switch d.state {
	case daemonIdle:
		c.idle++
	case daemonPending:
		c.pending++
	case daemonRunning:
		c.running++
	}
}

func signalDaemon(counts *wakeCounts) func(env *Env, work func(p *Proc, item int)) func(int) {
	return func(env *Env, work func(p *Proc, item int)) func(int) {
		d := NewDaemon(env, "svc", func(p *Proc) { work(p, 0) })
		return func(int) { counts.note(d); d.Wake() }
	}
}

func queueDaemon(counts *wakeCounts) func(env *Env, work func(p *Proc, item int)) func(int) {
	return func(env *Env, work func(p *Proc, item int)) func(int) {
		q := NewQueue[int](env)
		d := NewDaemon(env, "svc", func(p *Proc) {
			for q.Len() > 0 {
				v, _ := q.Pop(p)
				work(p, v)
			}
		})
		return func(v int) { q.Push(v); counts.note(d); d.Wake() }
	}
}

// TestDaemonMatchesWaitLoop pins Daemon to the loops it replaces: over many
// randomized scenarios the dispatch stream of a Daemon woken where the loop
// was woken equals that of a GoDaemon parked on a Signal (Broadcast) and of
// one popping a Queue (Push). The scenarios must between them wake the
// Daemon while idle, while pending (a second wake at the same instant) and
// while running.
func TestDaemonMatchesWaitLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		loop   func(env *Env, work func(p *Proc, item int)) func(int)
		daemon func(*wakeCounts) func(env *Env, work func(p *Proc, item int)) func(int)
	}{
		{"Signal", signalLoop, signalDaemon},
		{"Queue", queueLoop, queueDaemon},
	} {
		t.Run(c.name, func(t *testing.T) {
			var counts wakeCounts
			for seed := int64(1); seed <= 200; seed++ {
				want := serviceScenario(seed, c.loop)
				got := serviceScenario(seed, c.daemon(&counts))
				if got != want {
					t.Fatalf("seed %d: dispatch stream differs\nDaemon:\n%s\nwait loop:\n%s", seed, got, want)
				}
			}
			if counts.idle == 0 || counts.pending == 0 || counts.running == 0 {
				t.Fatalf("wakes found the Daemon idle %d, pending %d, running %d times; want every state covered",
					counts.idle, counts.pending, counts.running)
			}
		})
	}
}

// TestAfterWeakMatchesSleepWeak pins the weak callback to the weak sleep it
// replaces: a ticker re-arming AfterWeak fires at the same (time, order) as a
// GoDaemon looping on SleepWeak, beside a workload whose events share its
// instants, and neither keeps Run alive.
func TestAfterWeakMatchesSleepWeak(t *testing.T) {
	stream := func(callback bool) string {
		env := NewEnv()
		defer env.Close()
		var b strings.Builder
		tick := func(now time.Duration) { fmt.Fprintf(&b, "  tick at %v\n", now) }
		if callback {
			var fn func()
			fn = func() { tick(env.Now()); env.AfterWeak(700*time.Millisecond, fn) }
			env.AfterWeak(700*time.Millisecond, fn)
		} else {
			env.GoDaemon("ticker", func(p *Proc) {
				for {
					p.SleepWeak(700 * time.Millisecond)
					tick(p.Now())
				}
			})
			env.Step()
		}
		for i := 0; i < 2; i++ {
			env.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(700 * time.Millisecond) // lands on the ticks' instants
					fmt.Fprintf(&b, "  worker%d at %v\n", i, p.Now())
				}
			})
		}
		env.Run()
		fmt.Fprintf(&b, "end %v pending %d\n", env.Now(), env.Pending())
		return b.String()
	}
	if got, want := stream(true), stream(false); got != want {
		t.Fatalf("AfterWeak ticker:\n%s\nSleepWeak ticker:\n%s", got, want)
	}
}

// TestQuiescentRunLeavesNoGoroutine: a Run that drains leaves no goroutine
// behind, whatever ran in it — finished processes, a fork, a Daemon, a
// ticking weak callback — and the Env keeps working afterwards. A process
// still parked at quiescence keeps exactly its own coroutine until Close,
// and a RunUntil that stops with strong events pending keeps its idle
// coroutines for them.
func TestQuiescentRunLeavesNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	env := NewEnv()
	res := NewResource(env, 1)
	ran := 0
	d := NewDaemon(env, "svc", func(p *Proc) { p.Sleep(time.Second); ran++ })
	var tick func()
	tick = func() { env.AfterWeak(time.Second, tick) }
	env.AfterWeak(time.Second, tick)
	round := func() {
		for i := 0; i < 4; i++ {
			env.Go("user", func(p *Proc) {
				res.Acquire(p)
				p.Sleep(time.Second)
				res.Release()
				d.Wake()
				_ = p.Fork("leg", 3, func(sp *Proc, i int) error { sp.Sleep(time.Duration(i) * time.Millisecond); return nil })
			})
		}
		env.Run()
	}
	round()
	if n := runtime.NumGoroutine(); n != before || env.Stats().Workers != 0 || ran == 0 {
		t.Fatalf("after a quiescent Run: %d goroutines over the start, Stats = %+v, daemon ran %d times",
			n-before, env.Stats(), ran)
	}
	round() // fresh coroutines for the second round
	if n := runtime.NumGoroutine(); n != before || ran < 2 {
		t.Fatalf("after a second quiescent Run: %d goroutines over the start, daemon ran %d times", n-before, ran)
	}

	sig := NewSignal(env)
	env.Go("stuck", func(p *Proc) { sig.Wait(p) })
	env.Go("clock", func(p *Proc) { p.Sleep(time.Hour) })
	env.Go("brief", func(p *Proc) {})
	env.RunUntil(time.Minute) // clock's wakeup is still due: not quiescent
	if n := runtime.NumGoroutine(); n != before+3 || len(env.idle) != 1 {
		t.Fatalf("RunUntil short of quiescence: %d goroutines over the start, %d idle; want 3 and 1", n-before, len(env.idle))
	}
	env.Run()
	if n := runtime.NumGoroutine(); n != before+1 || !env.Deadlocked() {
		t.Fatalf("quiescent with one process parked: %d goroutines over the start (want 1), Deadlocked = %v", n-before, env.Deadlocked())
	}
	env.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines over the start after Close", n-before)
	}
}

// settledGoroutines returns runtime.NumGoroutine once the goroutines earlier
// tests left behind have exited: when the count has held for 10 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
