package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// --- failure semantics ---

func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	// t.Fatal inside a process is runtime.Goexit on the process's coroutine;
	// it must end the goroutine that called Run — what t.Fatal is documented
	// to do — and must not hang it.
	env := NewEnv()
	defer env.Close()
	other := false
	env.Go("fataler", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	env.Go("other", func(p *Proc) {
		p.Sleep(2 * time.Second)
		other = true
	})
	exited, returned := make(chan struct{}), false
	go func() {
		defer close(exited)
		env.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a Goexit in a process")
	}
	if returned || other {
		t.Fatalf("Run returned=%v, later process ran=%v; want the caller ended at the Goexit", returned, other)
	}
	if env.Live() != 1 {
		t.Fatalf("Live = %d, want 1 (the Goexit process is accounted as finished)", env.Live())
	}
}

var errExplode = errors.New("boom")

func explodeForTest() { panic(errExplode) }

func TestProcessPanicSurfacesAsProcPanic(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	env.Go("panicker", func(p *Proc) {
		p.Sleep(time.Second)
		explodeForTest()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run()
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want *ProcPanic", got, got)
	}
	if pp.Value != error(errExplode) || pp.Proc != "panicker" {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want panicker / %v", pp.Proc, pp.Value, errExplode)
	}
	if !strings.Contains(string(pp.Stack), "explodeForTest") {
		t.Errorf("Stack does not name the panicking function:\n%s", pp.Stack)
	}
	if msg := pp.Error(); !strings.Contains(msg, `"panicker"`) || !strings.Contains(msg, "explodeForTest") {
		t.Errorf("message lacks the process name or the original stack:\n%s", msg)
	}
}

// --- worker reuse ---

func TestSequentialChildrenReuseOneWorker(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	const n = 10000
	ran := 0
	env.Go("parent", func(p *Proc) {
		for i := 0; i < n; i++ {
			c := NewCompletion[struct{}](env)
			env.Go("child", func(cp *Proc) {
				cp.Sleep(time.Millisecond)
				ran++
				c.Resolve(struct{}{}, nil)
			})
			c.Wait(p)
		}
	})
	env.Run()
	st := env.Stats()
	if ran != n || st.Spawned != n+1 {
		t.Fatalf("ran %d children, spawned %d; want %d and %d", ran, st.Spawned, n, n+1)
	}
	if st.PeakWorkers > 2 || st.Workers > 2 {
		t.Fatalf("PeakWorkers = %d, Workers = %d; want <= 2 for %d sequential children", st.PeakWorkers, st.Workers, n)
	}
	if st.Events < 2*n || st.PeakPending < 1 {
		t.Fatalf("Stats = %+v: Events/PeakPending not counted", st)
	}
}

func TestStaleWakeupDoesNotResumeNextTenant(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var firstWorker, secondWorker *worker
	resumed := 0
	first := env.Go("first", func(p *Proc) {
		firstWorker = p.w
		p.park()
	})
	env.Go("driver", func(p *Proc) {
		p.Sleep(time.Second)
		first.wake()
		first.wake() // stale by the time it fires: first exits on the one above
		p.Sleep(time.Second)
		// first's worker is idle now; its next tenant parks with no wakeup due.
		env.GoDaemon("second", func(sp *Proc) {
			secondWorker = sp.w
			for {
				sp.park()
				resumed++
			}
		})
		p.Sleep(time.Second)
		// A wakeup addressed to first, long finished: it must be dropped, not
		// delivered to whoever holds first's worker.
		first.wake()
		p.Sleep(time.Second)
	})
	env.Run()
	if firstWorker == nil || firstWorker != secondWorker {
		t.Fatalf("second did not inherit first's worker (%p vs %p)", firstWorker, secondWorker)
	}
	if resumed != 0 {
		t.Fatalf("a stale wakeup for the finished process resumed its worker's next tenant %d time(s)", resumed)
	}
	if first.fn != nil || first.w != nil {
		t.Fatal("finished process still holds a worker")
	}

	// A Fork child's Proc is itself reused: a wakeup addressed to its first
	// life, still queued when that life ends, must not reach its second.
	fenv := NewEnv()
	defer fenv.Close()
	var lives []*Proc
	resumed = 0
	fenv.Go("parent", func(p *Proc) {
		p.Fork("child", 2, func(sp *Proc, i int) error {
			lives = append(lives, sp)
			if i == 0 {
				fenv.schedule(fenv.now+2*time.Second, sp) // fires after this life ends
			}
			sp.Sleep(time.Second)
			return nil
		})
		p.Fork("child", 2, func(sp *Proc, i int) error {
			lives = append(lives, sp)
			for i == 0 {
				sp.park() // no wakeup is due to this life
				resumed++
			}
			return nil
		})
	})
	fenv.Run()
	if len(lives) != 4 || lives[2] != lives[0] {
		t.Fatalf("the second Fork's child 0 did not reuse the first's Proc (%d lives)", len(lives))
	}
	if resumed != 0 {
		t.Fatalf("a wakeup for a Fork child's finished life resumed its next life %d time(s)", resumed)
	}
}

func TestFinishedProcessReturnsWorkerWhileSiblingsParked(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	gate := NewSignal(env)
	siblings := make([]*Proc, 11)
	held := make([]*worker, len(siblings))
	for i := range siblings {
		siblings[i] = env.Go(fmt.Sprintf("sibling%d", i), func(p *Proc) { gate.Wait(p) })
	}
	var quitter, heir *worker
	env.Go("quitter", func(p *Proc) { quitter = p.w })
	// Step, unlike a quiescent Run, keeps idle coroutines for the next tenant.
	for env.Step() {
	}
	for i, s := range siblings {
		if held[i] = s.w; held[i] == nil || held[i] == quitter {
			t.Fatalf("sibling %d has worker %p (quitter's is %p)", i, held[i], quitter)
		}
	}
	if st := env.Stats(); st.Workers != 12 || st.PeakWorkers != 12 || len(env.idle) != 1 || env.idle[0] != quitter {
		t.Fatalf("Stats = %+v, idle = %d; want 12 workers, the quitter's idle", st, len(env.idle))
	}
	env.Go("heir", func(p *Proc) { heir = p.w })
	for env.Step() {
	}
	if heir != quitter {
		t.Fatalf("heir ran on %p, want the quitter's worker %p", heir, quitter)
	}
	for i, s := range siblings {
		if s.w != held[i] {
			t.Fatalf("sibling %d moved from worker %p to %p", i, held[i], s.w)
		}
	}
	if st := env.Stats(); st.Workers != 12 || st.PeakWorkers != 12 {
		t.Fatalf("Stats = %+v after the heir; want still 12 workers", st)
	}
	gate.Broadcast()
	env.Run()
	if st := env.Stats(); env.Live() != 0 || len(env.idle) != 0 || st.Workers != 0 {
		t.Fatalf("Live = %d, idle = %d, Stats = %+v after the gate opened and Run quiesced; want no process and no worker",
			env.Live(), len(env.idle), st)
	}
}

// --- Close ---

func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %q, want it to mention %q", what, msg, want)
		}
	}()
	fn()
}

func TestCloseUnwindsEveryProcess(t *testing.T) {
	before := settledGoroutines()
	env := NewEnv()
	res := NewResource(env, 1)
	q := NewQueue[int](env)
	sig := NewSignal(env)
	var unwound []string
	mark := func(name string) func() { return func() { unwound = append(unwound, name) } }

	env.Go("holder", func(p *Proc) {
		res.Acquire(p)
		defer mark("holder")()
		defer res.Release() // hands the unit to "waiter", itself about to be unwound
		p.Sleep(time.Hour)
	})
	env.Go("waiter", func(p *Proc) {
		defer mark("waiter")()
		res.Acquire(p)
		t.Error("waiter acquired the resource during Close")
	})
	env.GoDaemon("consumer", func(p *Proc) {
		defer mark("consumer")()
		q.Pop(p)
	})
	env.Go("stubborn", func(p *Proc) {
		defer mark("stubborn")()
		defer func() {
			p.Sleep(time.Second) // blocks again while being unwound: unwound again
			t.Error("Sleep returned during Close")
		}()
		sig.Wait(p)
	})
	env.GoDaemon("ticker", func(p *Proc) {
		defer mark("ticker")()
		for {
			p.SleepWeak(time.Second)
		}
	})
	env.Go("done-early", func(p *Proc) { p.Sleep(time.Second) }) // leaves an idle worker
	env.RunUntil(time.Minute)
	env.Go("never-dispatched", func(p *Proc) { t.Error("ran after Close") })
	if st := env.Stats(); st.Workers != 6 || runtime.NumGoroutine() != before+6 {
		t.Fatalf("before Close: %d workers, %d goroutines over the start; want 6 and 6", st.Workers, runtime.NumGoroutine()-before)
	}

	env.Close()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("NumGoroutine = %d after Close, want the starting %d", got, before)
	}
	if got, want := strings.Join(unwound, " "), "holder waiter consumer stubborn ticker"; got != want {
		t.Fatalf("unwound in order %q, want %q", got, want)
	}
	if st := env.Stats(); st.Workers != 0 || st.PeakWorkers != 6 || env.Pending() != 0 {
		t.Fatalf("after Close: Stats = %+v, Pending = %d", st, env.Pending())
	}
	env.Close() // idempotent
	const closed = "use of a closed Env"
	mustPanic(t, "Go", closed, func() { env.Go("late", func(*Proc) {}) })
	mustPanic(t, "GoDaemon", closed, func() { env.GoDaemon("late", func(*Proc) {}) })
	mustPanic(t, "Run", closed, env.Run)
	mustPanic(t, "RunUntil", closed, func() { env.RunUntil(time.Hour) })
	mustPanic(t, "Step", closed, func() { env.Step() })
}

func TestCloseFromInsideProcessPanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Go("suicidal", func(p *Proc) { env.Close() })
	mustPanic(t, "Run", "Close called from inside process suicidal", env.Run)
}

// --- the allocation budget ---

func TestAllocBudget(t *testing.T) {
	step := func(env *Env) func() { return func() { env.Step() } }

	t.Run("Sleep", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		for i := 0; i < 12; i++ {
			env.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(time.Duration(1+env.Rand().Intn(5)) * time.Second)
				}
			})
		}
		env.RunUntil(time.Minute)
		if n := testing.AllocsPerRun(1000, step(env)); n != 0 {
			t.Errorf("%v allocs per Sleep wakeup, want 0", n)
		}
	})

	t.Run("QueueHandoff", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		ping, pong := NewQueue[int](env), NewQueue[int](env)
		env.Go("ping", func(p *Proc) {
			for {
				ping.Push(1)
				pong.Pop(p)
			}
		})
		env.Go("pong", func(p *Proc) {
			for {
				ping.Pop(p)
				pong.Push(1)
			}
		})
		for i := 0; i < 10; i++ {
			env.Step()
		}
		if n := testing.AllocsPerRun(1000, step(env)); n != 0 {
			t.Errorf("%v allocs per Queue push->pop handoff, want 0", n)
		}
	})

	t.Run("ResourceHandoff", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		res := NewResource(env, 1)
		for i := 0; i < 3; i++ {
			env.Go("user", func(p *Proc) {
				for {
					res.Acquire(p)
					p.Sleep(time.Second)
					res.Release()
				}
			})
		}
		env.RunUntil(time.Minute)
		if n := testing.AllocsPerRun(1000, step(env)); n != 0 {
			t.Errorf("%v allocs per Resource release->acquire handoff, want 0", n)
		}
	})

	t.Run("SpawnFinish", func(t *testing.T) {
		// A child started with Go and joined through a Completion: the
		// Completion (and its Signal and waiter list), a closure and a Proc —
		// but no goroutine and no event box.
		env := NewEnv()
		defer env.Close()
		turns := 0
		env.Go("parent", func(p *Proc) {
			for {
				c := NewCompletion[struct{}](env)
				env.Go("child", func(cp *Proc) { c.Resolve(struct{}{}, nil) })
				c.Wait(p)
				turns++
			}
		})
		turn := func() {
			for was := turns; turns == was; {
				env.Step()
			}
		}
		turn()
		if n := testing.AllocsPerRun(1000, turn); n > 6 {
			t.Errorf("%v allocs per spawn + finish, want <= 6", n)
		} else {
			t.Logf("%v allocs per spawn + finish", n)
		}
		if st := env.Stats(); st.PeakWorkers != 2 {
			t.Errorf("PeakWorkers = %d, want 2", st.PeakWorkers)
		}
	})

	t.Run("Daemon", func(t *testing.T) {
		// A Daemon woken, run and finished, woken again while running: its
		// Proc and bound body are reused, so nothing is allocated.
		env := NewEnv()
		defer env.Close()
		runs := 0
		var d *Daemon
		d = NewDaemon(env, "svc", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if runs++; runs%2 == 1 {
				d.Wake() // once more, straight after this run
			}
		})
		env.Go("waker", func(p *Proc) {
			for {
				d.Wake()
				p.Sleep(time.Second)
			}
		})
		env.RunUntil(time.Minute)
		if n := testing.AllocsPerRun(1000, step(env)); n != 0 {
			t.Errorf("%v allocs per Daemon wake and run, want 0", n)
		}
	})

	t.Run("AfterWeak", func(t *testing.T) {
		// A callback that re-arms itself reuses its slot: no allocation per tick.
		env := NewEnv()
		defer env.Close()
		var tick func()
		tick = func() { env.AfterWeak(time.Second, tick) }
		env.AfterWeak(time.Second, tick)
		env.Go("clock", func(p *Proc) {
			for {
				p.Sleep(time.Hour)
			}
		})
		env.RunUntil(time.Minute)
		if n := testing.AllocsPerRun(1000, step(env)); n != 0 {
			t.Errorf("%v allocs per AfterWeak tick, want 0", n)
		}
	})

	t.Run("Fork", func(t *testing.T) {
		// A 5-way fork and join: the record and its children's Procs come back
		// to the Env and are reused, so nothing is allocated.
		env := NewEnv()
		defer env.Close()
		turns := 0
		body := func(sp *Proc, i int) error {
			sp.Sleep(time.Duration(i) * time.Millisecond)
			return nil
		}
		env.Go("parent", func(p *Proc) {
			for {
				p.Fork("leg", 5, body)
				turns++
			}
		})
		turn := func() {
			for was := turns; turns == was; {
				env.Step()
			}
		}
		turn()
		if n := testing.AllocsPerRun(1000, turn); n != 0 {
			t.Errorf("%v allocs per 5-way fork and join, want 0", n)
		}
		if st := env.Stats(); st.PeakWorkers != 6 {
			t.Errorf("PeakWorkers = %d, want 6", st.PeakWorkers)
		}
	})
}
