package sim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_order.txt from this engine")

const goldenPath = "testdata/golden_order.txt"

// goldenRun drives one scenario through every primitive the engine offers —
// Sleep, SleepWeak, Yield, Resource contention, Signal Broadcast/Pulse, Queue
// push/pop/close, Completion, spawn-from-process, same-instant FIFO, a stale
// wakeup, and all three of RunUntil/Step/Run — and returns the sink stream as
// one "T<tab>Proc<tab>Kind<tab>Msg" line per event.
func goldenRun() string {
	env := NewEnv()
	defer env.Close()
	env.Seed(7)
	var b strings.Builder
	env.AddEventSink(func(ev TraceEvent) {
		fmt.Fprintf(&b, "%d\t%s\t%s\t%s\n", int64(ev.T), ev.Proc, ev.Kind, ev.Msg)
	})
	note := func(p *Proc, format string, args ...interface{}) {
		env.Emit("golden", p.Name(), fmt.Sprintf(format, args...))
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	arm := NewResource(env, 1)
	drives := NewResource(env, 3)
	jobs := NewQueue[int](env)
	gate := NewSignal(env)
	tick := NewSignal(env)
	allBurned := NewCompletion[int](env)
	const nJobs = 12
	burned := 0

	// A weak ticker: pulses while the workload keeps time moving.
	env.GoDaemon("ticker", func(p *Proc) {
		for i := 0; ; i++ {
			p.SleepWeak(ms(700))
			note(p, "tick %d", i)
			tick.Pulse()
		}
	})
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("pulsed%d", i), func(p *Proc) {
			for j := 0; j < 3; j++ {
				tick.Wait(p)
				note(p, "pulse %d", j)
				p.Sleep(ms(env.Rand().Intn(900)))
			}
		})
	}

	// Consumers pop jobs, contend for 3 drives and 1 arm, and fan each job
	// out into children the way the burners do.
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("cons%d", i), func(p *Proc) {
			for {
				v, ok := jobs.Pop(p)
				if !ok {
					note(p, "queue closed")
					return
				}
				drives.Acquire(p)
				note(p, "job %d: drive (inUse=%d waiting=%d)", v, drives.InUse(), drives.Waiting())
				arm.WithHold(p, func() {
					note(p, "job %d: arm", v)
					p.Sleep(ms(150))
				})
				kids := make([]*Completion[int], 3)
				for k := range kids {
					c := NewCompletion[int](env)
					kids[k] = c
					env.Go(fmt.Sprintf("burn-%d-d%d", v, k), func(cp *Proc) {
						cp.Sleep(ms(100 * (1 + (v+k)%3)))
						cp.Logf("burned job %d disc %d", v, k)
						c.Resolve(k, nil)
					})
				}
				for _, c := range kids {
					c.Wait(p)
				}
				drives.Release()
				if burned++; burned == nJobs {
					allBurned.Resolve(burned, nil)
				}
			}
		})
	}

	// Producers wake at the same instant: FIFO by spawn order decides.
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
			for j := 0; j < nJobs/4; j++ {
				p.Sleep(time.Second)
				note(p, "push %d", i*10+j)
				jobs.Push(i*10 + j)
			}
		})
	}

	// A level-triggered gate: early waiters park, the late one passes.
	for i := 0; i < 5; i++ {
		env.Go(fmt.Sprintf("gated%d", i), func(p *Proc) {
			gate.Wait(p)
			note(p, "through the gate")
			for j := 0; j < 3; j++ {
				p.Yield()
				note(p, "yield %d", j)
			}
		})
	}
	env.Go("opener", func(p *Proc) {
		p.Sleep(ms(2500))
		gate.Broadcast()
		note(p, "gate open")
		env.Go("late", func(lp *Proc) {
			gate.Wait(lp)
			note(lp, "gate already open")
		})
	})

	// A process woken twice: the second wakeup is stale by the time it fires.
	victim := env.Go("victim", func(p *Proc) {
		p.park()
		note(p, "woken once, exiting")
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(ms(300))
		victim.wake()
		victim.wake()
		env.Go("after-victim", func(ap *Proc) { note(ap, "runs after the stale wakeup") })
	})

	env.Go("closer", func(p *Proc) {
		n, _ := allBurned.Wait(p)
		note(p, "all %d burned, closing queue", n)
		jobs.Close()
	})

	env.RunUntil(ms(1800))
	fmt.Fprintf(&b, "-- RunUntil(1.8s): now=%d pending=%d live=%d\n", int64(env.Now()), env.Pending(), env.Live())
	for i := 0; i < 25 && env.Step(); i++ {
	}
	fmt.Fprintf(&b, "-- 25 Steps: now=%d pending=%d live=%d\n", int64(env.Now()), env.Pending(), env.Live())
	env.Run()
	fmt.Fprintf(&b, "-- Run: now=%d pending=%d live=%d deadlocked=%v\n", int64(env.Now()), env.Pending(), env.Live(), env.Deadlocked())
	return b.String()
}

// TestGoldenOrder pins the engine's dispatch order to a stream recorded at
// the last commit of the channel-handoff engine (PR 14): a transport change
// must reproduce it byte for byte.
func TestGoldenOrder(t *testing.T) {
	got := goldenRun()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("event %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stream length differs: got %d lines, want %d", len(gl), len(wl))
}
