package sim

// Resource is a counted resource (semaphore) with a FIFO wait queue, used to
// model exclusive or limited hardware whose holding time is not known when a
// request arrives: the robotic arm (capacity 1), an optical drive, a file
// read's fan-out over a drive group (capacity 12), etc. A FIFO server whose
// service time is decided on arrival is a clock instead
// (blockdev.Device.Book).
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource creates a resource with the given capacity. Capacity must be
// positive.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire obtains one unit, blocking the process in FIFO order until a unit
// is available.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park() // woken by Release with the unit already transferred
}

// TryAcquire obtains a unit without blocking and reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If processes are waiting, ownership transfers
// directly to the first waiter (so capacity is never observed free while a
// queue exists).
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of un-acquired resource")
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		w.wake() // unit stays accounted in inUse, now owned by w
		return
	}
	r.inUse--
}

// Signal is a broadcast condition: processes park on Wait and all of them
// are released by Broadcast. It is level-triggered once Set: Waits after a
// Set return immediately until Clear is called.
type Signal struct {
	env     *Env
	set     bool
	waiters []*Proc
}

// NewSignal creates a cleared signal.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait parks until the signal is set (or returns immediately if already set).
func (s *Signal) Wait(p *Proc) {
	if s.set {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast sets the signal and wakes all waiters.
func (s *Signal) Broadcast() {
	s.set = true
	s.waiters = wakeAll(s.waiters)
}

// Pulse wakes all current waiters without leaving the signal set.
func (s *Signal) Pulse() { s.waiters = wakeAll(s.waiters) }

// wakeAll wakes every process in ws and returns ws emptied. It keeps the
// capacity, so the next wait does not allocate, and drops the pointers, so a
// finished process stays collectable.
func wakeAll(ws []*Proc) []*Proc {
	for _, w := range ws {
		w.wake()
	}
	clear(ws)
	return ws[:0]
}

// Clear resets the signal to unset.
func (s *Signal) Clear() { s.set = false }

// IsSet reports whether the signal is set.
func (s *Signal) IsSet() bool { return s.set }

// Queue is an unbounded FIFO channel between processes. Pop blocks (in FIFO
// order among consumers) until an item is available.
type Queue[T any] struct {
	env     *Env
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue creates an empty queue.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Push appends an item and wakes one waiting consumer, if any.
func (q *Queue[T]) Push(v T) {
	if q.closed {
		panic("sim: Push on closed queue")
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		w.wake()
	}
}

// Pop removes and returns the head item, blocking while the queue is empty.
// ok is false if the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			return v, false
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v = q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Close marks the queue closed and wakes all blocked consumers, which will
// observe ok=false once the queue drains.
func (q *Queue[T]) Close() {
	q.closed = true
	q.waiters = wakeAll(q.waiters)
}

// Completion is a one-shot event carrying a result value, used to hand a
// task's outcome back to the submitting process.
type Completion[T any] struct {
	sig *Signal
	val T
	err error
}

// NewCompletion creates an unresolved completion.
func NewCompletion[T any](env *Env) *Completion[T] {
	return &Completion[T]{sig: NewSignal(env)}
}

// Resolve records the result and releases all waiters. Resolving twice
// panics.
func (c *Completion[T]) Resolve(v T, err error) {
	if c.sig.IsSet() {
		panic("sim: Completion resolved twice")
	}
	c.val, c.err = v, err
	c.sig.Broadcast()
}

// Wait blocks until the completion is resolved and returns its result.
func (c *Completion[T]) Wait(p *Proc) (T, error) {
	c.sig.Wait(p)
	return c.val, c.err
}

// Done reports whether the completion has been resolved.
func (c *Completion[T]) Done() bool { return c.sig.IsSet() }
