package sim

// Daemon is a background service that runs on demand. Wake starts its body
// as a daemon process (excluded from Live and Deadlocked accounting, like
// GoDaemon) when it is not running, and has the body run once more, straight
// after it returns, when it is woken while running. Between runs the Daemon
// holds no coroutine, so an Env whose services are idle is quiescent data.
//
// It replaces a GoDaemon loop that parks between jobs,
//
//	for { sig.Wait(p); sig.Clear(); work(p) }
//	for { v, ok := q.Pop(p); if !ok { return }; work(p, v) }
//
// event for event: with Wake where the loop's Broadcast or Push was and the
// loop's code after its wait as the body (for the queue, a body that pops
// until the queue is empty), every dispatch lands at the same (time, sequence)
// as the loop's wakeup did. A Wake before the body is dispatched changes
// nothing, as a second Broadcast or Push did not; a Wake while it runs
// re-runs it without an event, as a set Signal or a non-empty Queue let the
// loop straight through its next wait.
type Daemon struct {
	p     Proc
	body  func(p *Proc)
	run   func(p *Proc) // d.loop, bound once so that Wake allocates nothing
	state daemonState
	again bool // woken while running
}

type daemonState uint8

const (
	daemonIdle    daemonState = iota
	daemonPending             // started, not yet dispatched
	daemonRunning
)

// NewDaemon returns an idle daemon that runs body as process name on env.
func NewDaemon(env *Env, name string, body func(p *Proc)) *Daemon {
	d := &Daemon{body: body}
	d.p.env, d.p.name = env, name
	d.run = d.loop
	return d
}

// Wake asks for a run of the body: it starts one now (at the current virtual
// time, after the events already queued for it) if the daemon is idle, and
// another after the current one if the body is running. Wake may be called
// from inside or outside the simulation, like Signal.Broadcast.
func (d *Daemon) Wake() {
	switch d.state {
	case daemonIdle:
		d.state = daemonPending
		d.p.env.start(&d.p, d.p.name, d.run, true)
	case daemonRunning:
		d.again = true
	}
}

// loop is the process body: run the daemon's body until a run ends with no
// Wake having come in during it.
func (d *Daemon) loop(p *Proc) {
	d.state = daemonRunning
	for {
		d.again = false
		d.body(p)
		if !d.again {
			break
		}
	}
	d.state = daemonIdle
}
