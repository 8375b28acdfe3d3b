package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// stepUntil is RunUntil driven one Step at a time: the reference the in-place
// path must reproduce, since Step never delivers a wakeup in place.
func stepUntil(e *Env, limit time.Duration) {
	for len(e.events) > 0 {
		if limit >= 0 && e.events[0].t > limit {
			e.now = limit
			break
		}
		if limit < 0 && e.strong == 0 {
			break
		}
		e.Step()
	}
	if e.strong == 0 {
		e.releaseIdle()
	}
}

// randomWorld starts a seeded set of process programs on env that mix every
// way a process waits: Sleep (0 included), SleepWeak, Yield, AfterWeak
// callbacks that spawn, Fork, Resource, Queue and Signal handoffs and Daemon
// wakes. Each action appends "time process action" to the returned log. The
// programs are drawn from seed before the run, so two worlds built from one
// seed run the same programs.
func randomWorld(env *Env, seed int64) *[]string {
	r := rand.New(rand.NewSource(seed))
	log := new([]string)
	note := func(name, act string) {
		*log = append(*log, fmt.Sprintf("%d %s %s", env.Now(), name, act))
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	dur := func() time.Duration { return ms([]int{0, 0, 1, 2, 3, 5, 8}[r.Intn(7)]) }

	res := NewResource(env, 1+r.Intn(2))
	jobs := NewQueue[time.Duration](env)
	gate := NewSignal(env)
	svcNap := dur()
	svc := NewDaemon(env, "svc", func(p *Proc) {
		note(p.Name(), "svc run")
		p.Sleep(svcNap)
		note(p.Name(), "svc done")
	})
	if r.Intn(2) == 0 {
		env.GoDaemon("ticker", func(p *Proc) {
			for {
				p.SleepWeak(ms(4))
				note(p.Name(), "weak tick")
			}
		})
	}
	env.Go("consumer", func(p *Proc) {
		for {
			d, ok := jobs.Pop(p)
			if !ok {
				note(p.Name(), "queue closed")
				return
			}
			note(p.Name(), "pop")
			p.Sleep(d)
		}
	})
	gateAt := dur() * 3
	env.Go("gate", func(p *Proc) {
		p.Sleep(gateAt)
		note(p.Name(), "open")
		gate.Broadcast()
	})

	workers := 2 + r.Intn(4)
	left := workers
	for w := 0; w < workers; w++ {
		type op struct {
			kind int
			d    time.Duration
			n    int
		}
		prog := make([]op, 4+r.Intn(12))
		for i := range prog {
			prog[i] = op{kind: r.Intn(10), d: dur(), n: 2 + r.Intn(3)}
		}
		env.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for _, o := range prog {
				switch o.kind {
				case 0, 1:
					p.Sleep(o.d)
					note(p.Name(), "slept")
				case 2:
					p.SleepWeak(o.d)
					note(p.Name(), "slept weak")
				case 3:
					env.AfterWeak(o.d, func() {
						note("", "callback")
						env.Go("spawned", func(c *Proc) {
							c.Sleep(o.d)
							note(c.Name(), "spawned done")
						})
					})
				case 4:
					err := p.Fork("leg", o.n, func(c *Proc, i int) error {
						c.Sleep(time.Duration(i) * o.d)
						note(c.Name(), "leg")
						c.Sleep(o.d)
						return nil
					})
					note(p.Name(), fmt.Sprintf("joined %v", err))
				case 5:
					res.Acquire(p)
					note(p.Name(), "acquired")
					p.Sleep(o.d)
					res.Release()
				case 6:
					jobs.Push(o.d)
				case 7:
					svc.Wake()
				case 8:
					gate.Wait(p)
					note(p.Name(), "passed gate")
				case 9:
					p.Yield()
					note(p.Name(), "yielded")
				}
			}
			if left--; left == 0 {
				jobs.Close()
			}
		})
	}
	return log
}

// TestInPlaceMatchesStep runs random programs twice, once under RunUntil
// and Run, where a sleeper that is the next event wakes in place, and once
// one Step at a time, where every wakeup goes through the queue. The log,
// the clock and the engine's event count must be identical.
func TestInPlaceMatchesStep(t *testing.T) {
	var inPlace int64
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(-seed))
		var limits []time.Duration
		for at := time.Duration(0); r.Intn(3) > 0; {
			at += time.Duration(r.Intn(20)) * time.Millisecond
			limits = append(limits, at)
		}
		type outcome struct {
			log     []string
			now     time.Duration
			stats   Stats
			pending int
			live    int
		}
		drive := func(until func(*Env, time.Duration)) outcome {
			env := NewEnv()
			defer env.Close()
			env.Seed(seed)
			log := randomWorld(env, seed)
			for _, l := range limits {
				until(env, l)
				*log = append(*log, fmt.Sprintf("-- until %d: now %d", l, env.Now()))
			}
			until(env, -1)
			return outcome{*log, env.Now(), env.Stats(), env.Pending(), env.Live()}
		}
		run := drive((*Env).RunUntil)
		step := drive(stepUntil)
		if !slices.Equal(run.log, step.log) {
			for i := range min(len(run.log), len(step.log)) {
				if run.log[i] != step.log[i] {
					t.Fatalf("seed %d, limits %v: entry %d differs:\n  run: %s\n step: %s", seed, limits, i, run.log[i], step.log[i])
				}
			}
			t.Fatalf("seed %d: run logged %d entries, step %d", seed, len(run.log), len(step.log))
		}
		if run.now != step.now || run.pending != step.pending || run.live != step.live {
			t.Fatalf("seed %d: run ends at %v with %d pending, %d live; step at %v with %d, %d",
				seed, run.now, run.pending, run.live, step.now, step.pending, step.live)
		}
		if run.stats.Events != step.stats.Events || run.stats.Spawned != step.stats.Spawned {
			t.Fatalf("seed %d: run counts %d events, %d spawned; step %d, %d",
				seed, run.stats.Events, run.stats.Spawned, step.stats.Events, step.stats.Spawned)
		}
		if step.stats.InPlace != 0 {
			t.Fatalf("seed %d: Step delivered %d wakeups in place", seed, step.stats.InPlace)
		}
		inPlace += run.stats.InPlace
	}
	if inPlace == 0 {
		t.Fatal("no wakeup was delivered in place: the property is vacuous")
	}
}

// TestInPlaceStopsAtLimit: a sleep that ends within RunUntil's limit wakes
// in place; one that ends past it parks, and the clock rests at the limit.
func TestInPlaceStopsAtLimit(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var woke []time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second) // inside the limit
		woke = append(woke, p.Now())
		p.Sleep(2 * time.Second) // exactly at the limit
		woke = append(woke, p.Now())
		p.Sleep(2 * time.Second) // past it
		woke = append(woke, p.Now())
	})
	env.RunUntil(5 * time.Second)
	if st := env.Stats(); env.Now() != 5*time.Second || env.Pending() != 1 || st.InPlace != 2 || st.Events != 3 {
		t.Fatalf("after RunUntil(5s): now %v, %d pending, %d in place of %d events; want 5s, 1, 2 of 3",
			env.Now(), env.Pending(), st.InPlace, st.Events)
	}
	if want := []time.Duration{3 * time.Second, 5 * time.Second}; !slices.Equal(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	env.Run()
	if st := env.Stats(); env.Now() != 7*time.Second || st.InPlace != 2 || st.Events != 4 {
		t.Fatalf("after Run: now %v, %d in place of %d events; want 7s, 2 of 4", env.Now(), st.InPlace, st.Events)
	}
}
