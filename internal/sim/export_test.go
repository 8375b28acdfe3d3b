package sim

// GoDaemon spawns a background service process that is expected to outlive
// the workload: it is excluded from Live and Deadlocked accounting, so a
// simulation that quiesces with only daemons parked is considered cleanly
// finished. A daemon parked at quiescence keeps its coroutine, and so the
// Env, alive until Close. Only this package's tests spawn one: services use
// Daemon and AfterWeak, which park nothing between jobs.
func (e *Env) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

// Daemon reports whether the process is a background service: spawned with
// GoDaemon, or the body of a Daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// Waiting returns the number of processes queued on the resource.
func (r *Resource) Waiting() int { return len(r.waiters) }

// WithHold runs fn while holding one unit of the resource.
func (r *Resource) WithHold(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}
