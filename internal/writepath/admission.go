package writepath

import (
	"time"

	"ros/internal/obs"
	"ros/internal/sched"
	"ros/internal/sim"
)

// ticketState tracks an admission request through its lifecycle.
type ticketState int

const (
	ticketWaiting ticketState = iota
	ticketGranted
	ticketShed
	ticketCanceled
)

// Ticket is one admission request. Begin resolves it immediately (granted
// or shed) or queues it; Wait blocks the calling process until the ticket
// leaves the queue. A granted ticket's bytes are charged against the token
// bucket and must eventually be returned via Release / the burn pipeline.
type Ticket struct {
	class    Class
	bytes    int64
	enq      time.Duration
	deadline time.Duration // 0 = no deadline
	seq      int64
	state    ticketState
	c        *sim.Completion[struct{}]
	err      error
}

// Granted reports whether the ticket's bytes were admitted.
func (t *Ticket) Granted() bool { return t.state == ticketGranted }

// Wait blocks until the ticket is granted, shed or canceled and returns
// nil, ErrOverload or ErrCanceled respectively.
func (t *Ticket) Wait(p *sim.Proc) error {
	if t.c != nil {
		_, err := t.c.Wait(p)
		return err
	}
	return t.err
}

// Admission is the token bucket over write-buffer bytes-in-flight. All
// methods must be called from within the simulation (single-threaded by
// construction, like every sim primitive).
type Admission struct {
	env *sim.Env
	cfg AdmissionConfig

	inflight    [NumClasses]int64
	maxInflight int64 // high-tide watermark (soak-test observability)
	congested   bool
	queue       []*Ticket
	seq         int64
	watch       *sim.Daemon // sheds tickets past their deadline; nil without MaxWait

	m admMetrics
}

type admMetrics struct {
	inflight   *obs.Gauge
	inflightBy [NumClasses]*obs.Gauge
	pct        *obs.Gauge
	congested  *obs.Gauge
	queue      *obs.Gauge
	admitted   *obs.Counter
	admittedB  *obs.Counter
	sheds      *obs.Counter
	shedB      *obs.Counter
	waitBy     [NumClasses]*obs.Histogram
}

// NewAdmission creates the token bucket, which drains its queue in
// sched.Priority order; r receives the writepath.* metrics (nil disables
// them). The sched.Config argument is unused: the priorities are the
// scheduler's constants.
func NewAdmission(env *sim.Env, cfg AdmissionConfig, _ sched.Config, r *obs.Registry) *Admission {
	a := &Admission{
		env: env,
		cfg: cfg.withDefaults(),
	}
	a.m.inflight = r.Gauge("writepath.inflight_bytes")
	a.m.pct = r.Gauge("writepath.buffer_pct")
	a.m.congested = r.Gauge("writepath.congested")
	a.m.queue = r.Gauge("writepath.admit_queue")
	a.m.admitted = r.Counter("writepath.admitted")
	a.m.admittedB = r.Counter("writepath.admitted_bytes")
	a.m.sheds = r.Counter("writepath.shed_writes")
	a.m.shedB = r.Counter("writepath.shed_bytes")
	for cl := Class(0); cl < NumClasses; cl++ {
		a.m.inflightBy[cl] = r.Gauge("writepath.inflight." + cl.String())
		a.m.waitBy[cl] = r.Histogram("writepath.admit_wait." + cl.String())
	}
	if a.cfg.Enabled && a.cfg.MaxWait > 0 {
		a.watch = sim.NewDaemon(env, "writepath-admission-watchdog", a.watchdog)
	}
	return a
}

// Config returns the effective (defaulted) configuration.
func (a *Admission) Config() AdmissionConfig { return a.cfg }

// Acquire admits n bytes of class c, blocking on the admission queue when
// the bucket is congested. It returns ErrOverload when the write is shed
// (queue full, impossible size, or deadline expired). With admission
// disabled it only accounts the bytes and never blocks.
func (a *Admission) Acquire(p *sim.Proc, c Class, n int64) error {
	return a.Begin(c, n).Wait(p)
}

// Begin requests admission of n bytes for class c without blocking. The
// returned ticket is already granted, already shed, or queued (Wait on it).
func (a *Admission) Begin(c Class, n int64) *Ticket {
	now := a.env.Now()
	t := &Ticket{class: c, bytes: n, enq: now, state: ticketGranted}
	if n <= 0 {
		return t
	}
	if !a.cfg.Enabled {
		a.grantBytes(c, n)
		return t
	}
	// Fast grant: an empty queue plus a capacity fit, or a request within
	// the class's reservation floor. The floor bypasses the queue by design
	// — it is the guaranteed lane — and costs other classes nothing, since
	// their admissible capacity is already computed net of this class's
	// full reservation.
	if (len(a.queue) == 0 && a.fits(c, n)) || a.withinFloor(c, n) {
		a.grantBytes(c, n)
		a.m.admitted.Add(1)
		a.m.admittedB.Add(n)
		a.m.waitBy[c].Observe(0)
		return t
	}
	if n > a.maxAdmissible(c) || len(a.queue) >= maxQueue {
		t.state = ticketShed
		t.err = ErrOverload
		a.noteShed(n)
		return t
	}
	a.seq++
	t.state = ticketWaiting
	t.seq = a.seq
	if a.cfg.MaxWait > 0 {
		t.deadline = now + a.cfg.MaxWait
	}
	t.c = sim.NewCompletion[struct{}](a.env)
	a.queue = append(a.queue, t)
	a.m.queue.Set(int64(len(a.queue)))
	if a.watch != nil {
		a.watch.Wake()
	}
	return t
}

// Cancel withdraws a still-queued ticket; its waiter unblocks with
// ErrCanceled and no bytes are charged. It reports whether the ticket was
// actually waiting (false if already granted, shed, or canceled).
func (a *Admission) Cancel(t *Ticket) bool {
	if t.state != ticketWaiting {
		return false
	}
	a.remove(t)
	t.state = ticketCanceled
	t.c.Resolve(struct{}{}, ErrCanceled)
	return true
}

// Release returns n bytes of class c to the bucket and drains the
// admission queue in QoS order.
func (a *Admission) Release(c Class, n int64) {
	if n <= 0 {
		return
	}
	if n > a.inflight[c] {
		n = a.inflight[c] // defensive clamp; accounting must never go negative
	}
	a.inflight[c] -= n
	a.afterChange()
	if a.cfg.Enabled {
		a.dispatch()
	}
}

// InflightBytes returns the total admitted-but-unburned bytes.
func (a *Admission) InflightBytes() int64 {
	var t int64
	for cl := Class(0); cl < NumClasses; cl++ {
		t += a.inflight[cl]
	}
	return t
}

// InflightClass returns the admitted-but-unburned bytes of one class.
func (a *Admission) InflightClass(c Class) int64 { return a.inflight[c] }

// MaxInflightBytes returns the high-tide watermark of InflightBytes.
func (a *Admission) MaxInflightBytes() int64 { return a.maxInflight }

// Congested reports whether the bucket is between high-water (set) and
// low-water (clear).
func (a *Admission) Congested() bool { return a.congested }

// QueueLen returns the number of writes parked on the admission queue.
func (a *Admission) QueueLen() int { return len(a.queue) }

// Sheds returns the number of writes shed with ErrOverload.
func (a *Admission) Sheds() int64 { return a.m.sheds.Value() }

// grantBytes charges n bytes to class c.
func (a *Admission) grantBytes(c Class, n int64) {
	a.inflight[c] += n
	a.afterChange()
}

// afterChange refreshes the watermark, hysteresis state and gauges after
// any inflight mutation.
func (a *Admission) afterChange() {
	total := a.InflightBytes()
	if total > a.maxInflight {
		a.maxInflight = total
	}
	if cap := a.cfg.CapacityBytes; cap > 0 {
		hw := int64(highWater * float64(cap))
		lw := int64(lowWater * float64(cap))
		if !a.congested && total >= hw {
			a.congested = true
		} else if a.congested && total <= lw {
			a.congested = false
		}
		a.m.pct.Set(total * 100 / cap)
	}
	a.m.inflight.Set(total)
	for cl := Class(0); cl < NumClasses; cl++ {
		a.m.inflightBy[cl].Set(a.inflight[cl])
	}
	if a.congested {
		a.m.congested.Set(1)
	} else {
		a.m.congested.Set(0)
	}
}

func (a *Admission) reserveBytes(c Class) int64 {
	return int64(reserve[c] * float64(a.cfg.CapacityBytes))
}

// withinFloor reports whether granting n more bytes keeps class c inside
// its guaranteed reservation.
func (a *Admission) withinFloor(c Class, n int64) bool {
	return a.cfg.CapacityBytes > 0 && a.inflight[c]+n <= a.reserveBytes(c)
}

// fits decides immediate admission of n bytes for class c: always within
// the class's reservation floor (even while congested); otherwise only
// while uncongested and only into capacity net of the OTHER classes'
// unused reservations (so floors stay honorable later).
func (a *Admission) fits(c Class, n int64) bool {
	cap := a.cfg.CapacityBytes
	if cap <= 0 {
		return true
	}
	if a.inflight[c]+n <= a.reserveBytes(c) {
		return true
	}
	if a.congested {
		return false
	}
	avail := cap
	for o := Class(0); o < NumClasses; o++ {
		if o == c {
			continue
		}
		if unused := a.reserveBytes(o) - a.inflight[o]; unused > 0 {
			avail -= unused
		}
	}
	return a.InflightBytes()+n <= avail
}

// maxAdmissible is the largest request class c could ever be granted; a
// bigger one is shed immediately instead of queueing forever.
func (a *Admission) maxAdmissible(c Class) int64 {
	cap := a.cfg.CapacityBytes
	if cap <= 0 {
		return 1 << 62
	}
	m := cap
	for o := Class(0); o < NumClasses; o++ {
		if o != c {
			m -= a.reserveBytes(o)
		}
	}
	if r := a.reserveBytes(c); r > m {
		m = r
	}
	return m
}

// dispatch grants queued tickets in drain order — QoS class weight plus
// aging, FIFO within ties — stopping at the first that does not fit
// (strict priority: a small low-priority write cannot bypass the head of
// the drain order).
func (a *Admission) dispatch() {
	for len(a.queue) > 0 {
		i := a.best()
		t := a.queue[i]
		if !a.fits(t.class, t.bytes) {
			return
		}
		a.queue = append(a.queue[:i], a.queue[i+1:]...)
		a.m.queue.Set(int64(len(a.queue)))
		a.grantBytes(t.class, t.bytes)
		t.state = ticketGranted
		a.m.admitted.Add(1)
		a.m.admittedB.Add(t.bytes)
		a.m.waitBy[t.class].ObserveSince(t.enq, a.env.Now())
		t.c.Resolve(struct{}{}, nil)
	}
}

// best returns the index of the next ticket in drain order.
func (a *Admission) best() int {
	now := a.env.Now()
	best := 0
	bp := a.prio(a.queue[0], now)
	for i := 1; i < len(a.queue); i++ {
		if p := a.prio(a.queue[i], now); p > bp {
			best, bp = i, p
		}
	}
	return best
}

func (a *Admission) prio(t *Ticket, now time.Duration) int {
	return sched.Priority(t.class.SchedClass(), now-t.enq)
}

func (a *Admission) remove(t *Ticket) {
	for i, q := range a.queue {
		if q == t {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
	a.m.queue.Set(int64(len(a.queue)))
}

func (a *Admission) noteShed(n int64) {
	a.m.sheds.Add(1)
	a.m.shedB.Add(n)
}

// watchdog is the deadline daemon's body: it sheds queued tickets whose
// deadline has passed and returns once the queue is empty, so a drained
// simulation carries no stray timers.
func (a *Admission) watchdog(p *sim.Proc) {
	for len(a.queue) > 0 {
		earliest := a.queue[0].deadline
		for _, t := range a.queue[1:] {
			if t.deadline < earliest {
				earliest = t.deadline
			}
		}
		if d := earliest - p.Now(); d > 0 {
			p.Sleep(d)
			continue
		}
		now := p.Now()
		expired := make([]*Ticket, 0, 1)
		for _, t := range a.queue {
			if t.deadline > 0 && t.deadline <= now {
				expired = append(expired, t)
			}
		}
		for _, t := range expired {
			a.remove(t)
			t.state = ticketShed
			a.noteShed(t.bytes)
			t.c.Resolve(struct{}{}, ErrOverload)
		}
		if len(expired) == 0 {
			p.Sleep(time.Millisecond) // defensive: avoid a zero-advance spin
		}
	}
}
