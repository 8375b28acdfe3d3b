//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// worker is one coroutine. It runs one process (its tenant) at a time and
// outlives it: when the tenant finishes the worker joins Env.idle and the
// next process to start takes it over.
type worker struct {
	env   *Env
	p     *Proc                   // tenant; nil while idle
	next  func() (struct{}, bool) // dispatch loop -> worker
	stop  func()                  // Close -> worker
	yield func(struct{}) bool     // worker -> dispatch loop; false once the Env is closed
}

// unwind is what park panics with once the Env is closed: it carries a parked
// process out through its own defers to worker.run, which swallows it.
type unwind struct{}

// ProcPanic is the value Run, RunUntil and Step panic with when a process
// panics. They re-panic on the caller's goroutine, whose stack says nothing
// about the process, so the process's own stack rides along.
type ProcPanic struct {
	Proc  string // name of the process that panicked
	Value any    // what it panicked with
	Stack []byte // debug.Stack() taken in the process at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// dispatch resumes p on its worker — an idle one, or a new one, if p has not
// run yet — and returns when p parks or finishes.
func (e *Env) dispatch(p *Proc) {
	w := p.w
	if w == nil {
		if n := len(e.idle); n > 0 {
			w, e.idle = e.idle[n-1], e.idle[:n-1]
		} else {
			w = &worker{env: e}
			w.next, w.stop = iter.Pull(w.loop)
			e.workers = append(e.workers, w)
			if e.stats.Workers++; e.stats.Workers > e.stats.PeakWorkers {
				e.stats.PeakWorkers = e.stats.Workers
			}
		}
		w.p, p.w = p, w
	}
	e.running = p
	w.next()
	e.running = nil
}

// loop is the coroutine body: run the tenant, join the idle list, yield until
// the next tenant arrives. It ends when Close makes yield report false, or
// when a tenant panics or calls runtime.Goexit — iter.Pull re-raises either
// from next, on the goroutine that called Run.
func (w *worker) loop(yield func(struct{}) bool) {
	e := w.env
	w.yield = yield
	defer func() { e.stats.Workers-- }()
	for {
		w.run()
		if e.closed {
			return
		}
		e.idle = append(e.idle, w)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the tenant to its end. The bookkeeping is deferred so that it
// also happens when the process panics, calls Goexit or is unwound by Close.
func (w *worker) run() {
	p, e := w.p, w.env
	defer func() {
		p.fn, p.w, w.p, e.running = nil, nil, nil, nil
		if !p.daemon {
			e.live--
		}
		if r := recover(); r != nil && r != (unwind{}) {
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	p.fn(p)
}

// park hands control back to the dispatch loop until the process is resumed.
// The caller must have arranged a future wakeup (a scheduled event or
// membership in some wait queue).
func (p *Proc) park() {
	if !p.w.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Close ends every coroutine of the Env so that it, and whatever its
// processes reference, can be collected. Each parked process is unwound: its
// blocking call panics with a private value, its deferred functions run (one
// that blocks again is unwound again) and its coroutine exits; when Close
// returns no goroutine started by the Env remains. Close must be called from
// outside the simulation and is never implicit; a second call is a no-op;
// Go, Run, RunUntil and Step panic afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	if e.running != nil {
		panic("sim: Close called from inside process " + e.running.name)
	}
	e.closed = true
	for _, w := range e.workers {
		w.stop()
	}
	e.workers, e.idle, e.events, e.strong = nil, nil, nil, 0
}
