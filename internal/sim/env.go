// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives "processes": functions that run one at a time, each on a
// coroutine (iter.Pull), so a switch between the dispatch loop and a process
// is a direct transfer of control with no channel and no scheduler wakeup.
// Virtual time advances instantly between events, which lets ROS model
// minute-scale mechanical and disc-burning delays in microseconds of host
// time while preserving ordering, contention and FIFO fairness. A finished
// process hands its coroutine to the next one that starts, so a short-lived
// child costs a Proc and a closure, not a goroutine. Proc.Fork is the one
// fan-out and join — a RAID stripe's member I/Os, a burn's discs, a parallel
// scan's columns — and its children reuse their join record's Procs, so they
// cost nothing at all.
//
// Run and RunUntil may deliver a sleeper's wakeup in place: when nothing else
// is due first and the wakeup lies within the run's limit, Sleep advances the
// clock itself and the process carries on, with no heap push or pop and no
// coroutine switch (Stats.InPlace counts these). Order, clock and Stats.Events
// are exactly what the queue would have given. Step delivers exactly one
// event and never takes that path, so a Step loop sees every wakeup.
//
// No goroutine outlives a quiescent Run: when Run or RunUntil returns with no
// strong event queued, every coroutine without a parked process ends, and the
// next process to start gets a fresh one. Background services do not park
// between jobs: a Daemon runs its body only when woken, and a periodic
// observer ticks on an AfterWeak callback, which needs no process at all. So
// a drained Env is plain data, collected like any other once its owner drops
// it. Close is needed only after a Run that stopped with processes still
// blocked — a deadlock, or a simulation abandoned mid-flight — to unwind them.
//
// Run, RunUntil and Step may be called from any goroutine, one at a time —
// but from one locked to an OS thread only if every earlier call on the Env
// was made under that lock (the runtime ties a coroutine to the thread-lock
// state it was created in). A panic in a process surfaces from that call as a
// *ProcPanic; runtime.Goexit in a process — t.Fatal inside the simulation —
// ends the calling goroutine.
//
// go.mod says "go 1.22" because the out-of-tree bench module pins it;
// worker.go imports iter under //go:build go1.23, so building needs a
// Go >= 1.23 toolchain.
//
// Typical use:
//
//	env := sim.NewEnv()
//	env.Go("burner", func(p *sim.Proc) {
//	    p.Sleep(675 * time.Second) // burn a 25GB disc
//	})
//	env.Run()
//	fmt.Println(env.Now()) // 675s of virtual time
package sim

import (
	"math"
	"math/rand"
	"strconv"
	"time"
)

// Env is a discrete-event simulation environment. It owns the virtual clock
// and the pending-event queue. An Env must be created with NewEnv; the zero
// value is not usable.
type Env struct {
	now    time.Duration
	events eventHeap
	seq    int64
	strong int // queued events that keep Run alive (everything but weak timers)
	live   int // processes started and not yet finished
	rng    *rand.Rand
	sinks  []func(TraceEvent)
	faults any // environment-wide fault plane (owned by internal/faultinject)

	running *Proc     // process executing now; nil between events
	workers []*worker // every coroutine started on this Env and not yet ended
	idle    []*worker // those with no tenant; the last one freed is reused first
	joins   []*join   // Fork records not in use; the last one freed is reused first
	calls   []func()  // AfterWeak callbacks, indexed by their events' gen
	free    []uint32  // unused slots of calls
	closed  bool
	stats   Stats

	// horizon is the latest wakeup Sleep may deliver in place: the limit of
	// the running RunUntil (Run's is unbounded), and -1 otherwise: Step
	// delivers exactly one event, and a process that sleeps while Close
	// unwinds it must park to be unwound again.
	horizon time.Duration
}

// Stats are the engine's own counters (plain fields: sim cannot import obs).
type Stats struct {
	Events      int64 // wakeups delivered to a process, and AfterWeak callbacks run
	InPlace     int64 // of those, Sleep wakeups delivered without leaving the process
	Spawned     int64 // process lives started: by Go, GoDaemon, Fork and Daemon.Wake
	Workers     int   // coroutines alive now, tenanted or idle
	PeakWorkers int   // most alive at once: the peak of started, unfinished processes
	PeakPending int   // deepest the event queue has been
}

// Stats returns the engine's counters.
func (e *Env) Stats() Stats { return e.stats }

// TraceEvent is one structured simulation event, published with Emit. Sinks
// receive events in emission order at the emitting process's virtual time,
// so event streams are as deterministic as the simulation itself.
type TraceEvent struct {
	T    time.Duration // virtual time of the event
	Proc string        // emitting process name ("" for non-process emitters)
	Kind string        // event kind, dot-separated (e.g. KindBurnInterrupt)
	Msg  string        // free-form detail
}

// Well-known TraceEvent kinds: the central catalogue of every event the
// engine and the ROS subsystems publish through Emit, so sinks can match on
// constants instead of stringly-typed literals.
const (
	// KindRackLoad / KindRackUnload mark completed array load/unload
	// composites (internal/rack).
	KindRackLoad   = "rack.load"
	KindRackUnload = "rack.unload"
	// KindBurnFinish / KindBurnInterrupt / KindBurnFail mark burn-task
	// outcomes; KindFetch marks a completed mechanical fetch (internal/olfs).
	KindBurnFinish    = "olfs.burn.finish"
	KindBurnInterrupt = "olfs.burn.interrupt"
	KindBurnFail      = "olfs.burn.fail"
	KindFetch         = "olfs.fetch"
)

// NewEnv returns a fresh environment with virtual time zero and a
// deterministic random source.
func NewEnv() *Env {
	return &Env{rng: rand.New(rand.NewSource(1)), horizon: -1}
}

// Seed reseeds the environment's deterministic random source.
func (e *Env) Seed(seed int64) { e.rng = rand.New(rand.NewSource(seed)) }

// SetFaultPlane installs (or clears, with nil) the environment's fault plane.
// The engine never interprets the value; internal/faultinject stores its
// Plane here so lower layers can consult named fault points without the
// engine depending on upper packages (same pattern as Proc trace contexts).
func (e *Env) SetFaultPlane(v any) { e.faults = v }

// FaultPlane returns the value installed by SetFaultPlane, or nil.
func (e *Env) FaultPlane() any { return e.faults }

// Rand returns the environment's deterministic random source. It must only
// be used from within processes (or before Run), never concurrently.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Now returns the current virtual time since the start of the simulation.
func (e *Env) Now() time.Duration { return e.now }

// AddEventSink registers a structured-event subscriber. Sinks are invoked
// synchronously, in registration order, for every Emit call. Sinks cannot be
// removed; register once per Env.
func (e *Env) AddEventSink(fn func(TraceEvent)) {
	if fn != nil {
		e.sinks = append(e.sinks, fn)
	}
}

// Emit publishes a structured event to all registered sinks at the current
// virtual time. msg builds the event's detail and runs only when a sink
// listens, so an event nobody subscribes to costs no formatting.
func (e *Env) Emit(kind, proc string, msg func() string) {
	if len(e.sinks) == 0 {
		return
	}
	ev := TraceEvent{T: e.now, Proc: proc, Kind: kind, Msg: msg()}
	for _, s := range e.sinks {
		s(ev)
	}
}

// Go spawns a new process executing fn. The process does not start running
// until the scheduler dispatches it (at the current virtual time, after any
// already-queued events at that time). Go may be called before Run or from
// within a running process.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

func (e *Env) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{env: e}
	e.start(p, name, fn, daemon)
	return p
}

// start begins a new life of p, fresh or finished, running fn. Its
// generation moves on, so a wakeup addressed to an earlier life is dropped.
func (e *Env) start(p *Proc, name string, fn func(p *Proc), daemon bool) {
	e.mustBeOpen()
	p.name, p.fn, p.daemon, p.tctx = name, fn, daemon, nil
	p.gen++
	if !daemon {
		e.live++
	}
	e.stats.Spawned++
	e.schedule(e.now, p)
}

// schedule enqueues a wakeup for p at virtual time t.
func (e *Env) schedule(t time.Duration, p *Proc) {
	e.strong++
	e.push(event{t: t, p: p, gen: p.gen})
}

// scheduleWeak enqueues a weak wakeup: it fires in time order like any other
// event while the simulation has work, but does not by itself keep Run alive,
// so a forever-ticking observer never prevents a workload from draining to
// quiescence.
func (e *Env) scheduleWeak(t time.Duration, p *Proc) {
	e.push(event{t: t, p: p, gen: p.gen, weak: true})
}

// AfterWeak calls fn at d from now on a weak timer: the call comes in (time,
// schedule order) like a SleepWeak wakeup, while the simulation has other
// work, but it never keeps Run alive by itself. fn runs outside any process,
// on the goroutine driving the Env, so it must not block; it may start
// processes, wake daemons and call AfterWeak again — a periodic observer
// re-arms itself this way and parks no coroutine between ticks. A callback
// still queued when the Env is closed is dropped.
func (e *Env) AfterWeak(d time.Duration, fn func()) {
	e.mustBeOpen()
	var slot uint32
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
		e.calls[slot] = fn
	} else {
		slot = uint32(len(e.calls))
		e.calls = append(e.calls, fn)
	}
	e.push(event{t: e.now + max(d, 0), gen: slot, weak: true})
}

// push stamps ev with the next sequence number and queues it.
func (e *Env) push(ev event) {
	if ev.t < e.now {
		ev.t = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
	if n := len(e.events); n > e.stats.PeakPending {
		e.stats.PeakPending = n
	}
}

// Run executes events until the event queue is empty. Processes that remain
// parked on a Resource, Signal or Queue when the queue drains stay suspended
// (Close unwinds them); Deadlocked reports whether that happened. Every other
// coroutine ends before Run returns.
func (e *Env) Run() {
	e.RunUntil(-1)
}

// RunUntil executes events whose time is <= limit. A negative limit means
// "run to completion": events run until only weak timer wakeups remain, which
// are left queued (a sampler tick with no workload left to observe must not
// spin the clock forever). With a non-negative limit, weak events up to the
// limit do fire — the caller explicitly asked for that much time to pass. On
// return the virtual clock rests at the time of the last executed event (Run)
// or at limit (RunUntil with pending later events). If no strong event is
// left queued, the Env is quiescent and the coroutines of finished processes
// end (see releaseIdle).
func (e *Env) RunUntil(limit time.Duration) {
	e.mustBeOpen()
	e.horizon = limit
	if limit < 0 {
		e.horizon = math.MaxInt64
	}
	defer func() { e.horizon = -1 }()
	for len(e.events) > 0 {
		if limit >= 0 && e.events[0].t > limit {
			e.now = limit
			break
		}
		if limit < 0 && e.strong == 0 {
			break // only weak timer wakeups remain: quiescent
		}
		e.step()
	}
	if e.strong == 0 {
		e.releaseIdle()
	}
}

// Step executes a single event and reports whether one was available.
func (e *Env) Step() bool {
	e.mustBeOpen()
	if len(e.events) == 0 {
		return false
	}
	e.step()
	return true
}

// step pops the earliest event and runs its callback, or its process until it
// parks or ends.
func (e *Env) step() {
	ev := e.events.pop()
	if !ev.weak {
		e.strong--
	}
	if ev.p == nil {
		e.now = ev.t
		e.stats.Events++
		fn := e.calls[ev.gen]
		e.calls[ev.gen] = nil
		e.free = append(e.free, ev.gen)
		fn()
		return
	}
	if ev.p.fn == nil || ev.gen != ev.p.gen {
		return // stale wakeup: the process has exited, or exited and started again
	}
	e.now = ev.t
	e.stats.Events++
	e.dispatch(ev.p)
}

func (e *Env) mustBeOpen() {
	if e.closed {
		panic("sim: use of a closed Env")
	}
}

// Deadlocked reports whether live processes remain parked with no pending
// events to wake them — i.e. the simulation cannot make further progress.
// Weak timer wakeups don't count: a ticking sampler cannot unblock anything.
func (e *Env) Deadlocked() bool {
	return e.strong == 0 && e.live > 0
}

// Live returns the number of processes that have been spawned and have not
// yet finished.
func (e *Env) Live() int { return e.live }

// Pending returns the number of queued events.
func (e *Env) Pending() int { return len(e.events) }

// event is a scheduled process wakeup, or an AfterWeak callback when p is
// nil. seq breaks ties so that events at the same virtual time fire in
// schedule order (FIFO, deterministic). gen is the life of p it is addressed
// to (a Fork or Daemon Proc runs many), or a callback's slot in Env.calls.
// weak marks idle-exempt timer events (see scheduleWeak).
type event struct {
	t    time.Duration
	seq  int64
	p    *Proc
	gen  uint32
	weak bool
}

func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events held by value: pushing and popping
// allocate nothing once the slice has grown to the simulation's depth.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// up moves the event at i toward the root until its parent is due first.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	ev := s[n]
	s[n] = event{} // drop the *Proc so a finished process is collectable
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(ev) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = ev
	}
	*h = s
	return top
}

// Proc is a simulation process: a function run cooperatively by its Env on a
// coroutine. All blocking methods (Sleep, Resource.Acquire, ...) must be
// called from within the process's own function.
type Proc struct {
	env     *Env
	name    string
	fn      func(p *Proc) // the body; nil once finished
	w       *worker       // its coroutine, from first dispatch until it finishes
	gen     uint32        // the life it is in: bumped by every start
	daemon  bool
	tctx    any   // request-scoped trace context (owned by internal/obs)
	fork    *join // the Fork whose child it is; nil otherwise
	forkIdx int   // its index in that Fork
}

// TraceContext returns the process's request-scoped trace context (nil when
// the process is not executing on behalf of a traced request). The engine
// never interprets the value; internal/obs stores its current span here so
// lower layers can attach causal child spans without plumbing an argument
// through every call.
func (p *Proc) TraceContext() any { return p.tctx }

// SetTraceContext installs (or clears, with nil) the trace context.
func (p *Proc) SetTraceContext(v any) { p.tctx = v }

// Name returns the process name given to Env.Go. A Fork child's is Fork's
// name followed by the child's index, formatted here so that a fan-out whose
// children are never asked their name allocates nothing for it.
func (p *Proc) Name() string {
	if p.fork != nil {
		return p.name + strconv.Itoa(p.forkIdx)
	}
	return p.name
}

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Sleep suspends the process for d of virtual time. Negative durations sleep
// zero time (yielding to other processes scheduled at the same instant).
//
// When no queued event is due at or before the wakeup and the running Run or
// RunUntil would deliver it, the wakeup is the next event: Sleep delivers it
// in place, as step would — the clock moves, the wakeup's sequence number is
// spent and the event counted — and the process goes on without parking.
func (p *Proc) Sleep(d time.Duration) {
	e := p.env
	t := e.now + max(d, 0)
	if t <= e.horizon && (len(e.events) == 0 || e.events[0].t > t) {
		e.seq++
		e.now = t
		e.stats.Events++
		e.stats.InPlace++
		return
	}
	e.schedule(t, p)
	p.park()
}

// Hasten moves the wakeup of p, parked in Sleep, earlier: to t, or to the
// current time if t is earlier still. The wakeup keeps the sequence number its
// Sleep gave it, so among the events due at t it fires where a Sleep that had
// asked for t would have put it. Its old time leaves the queue with it: no
// clock, RunUntil limit, Pending, Deadlocked or Stats count ever sees it.
// Hasten reports whether it moved a wakeup; it does nothing to a process that
// is not parked in Sleep, or whose wakeup is due at t or sooner. It may be
// called from a process or from outside the simulation.
func (p *Proc) Hasten(t time.Duration) bool {
	e := p.env
	t = max(t, e.now)
	for i, ev := range e.events {
		if ev.p == p && ev.gen == p.gen && !ev.weak {
			if ev.t <= t {
				return false
			}
			e.events[i].t = t
			e.events.up(i)
			return true
		}
	}
	return false
}

// SleepWeak suspends the process for d of virtual time on a weak timer: the
// wakeup fires in order while the simulation has other work, but does not by
// itself keep Run alive or make an otherwise-stuck simulation look live. A
// process parked on it still holds its coroutine at quiescence; a periodic
// observer that needs no process ticks on AfterWeak instead.
func (p *Proc) SleepWeak(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleWeak(p.env.now+d, p)
	p.park()
}

// ByteTime is the virtual time n bytes take at rate bytes per second: the one
// conversion every byte-proportional charge makes.
func ByteTime(n, rate float64) time.Duration {
	return time.Duration(n / rate * float64(time.Second))
}

// Yield relinquishes control until all other events at the current instant
// have run.
func (p *Proc) Yield() { p.Sleep(0) }

// wake schedules an immediate resumption of a parked process.
func (p *Proc) wake() { p.env.schedule(p.env.now, p) }
