// Package sched is the central mechanical scheduler for ROS: every demand on
// the robotic arm and the drive groups — interactive read misses, maintenance
// prefetches, background burns, idle-time scrubs — is admitted through one
// typed request queue instead of racing over a broadcast signal.
//
// The scheduler fixes three problems of the reactive first-fit loop it
// replaces (olfs/task.go prior to this package):
//
//   - Starvation. Waiters parked on a pulsed signal woke as a thundering
//     herd and re-raced for groups; a request could lose every race. Here
//     each request parks on its own completion and is granted explicitly,
//     so service order is a policy decision, not a race outcome.
//   - Priority inversion. A burn that arrived one virtual second before an
//     interactive read held the drive group for minutes. QoS classes order
//     interactive reads > prefetches > burns > scrubs, with deadline-based
//     aging so background classes still make progress under read load.
//   - Wasted arm travel. Pending misses were served in arrival order,
//     zigzagging the vertical arm across layers. The qos-scan policy orders
//     same-priority fetches SCAN/elevator-style around the arm's current
//     layer, and victim selection is LRU- and demand-aware instead of
//     first-idle-loaded (which could evict a tray other waiters were queued
//     for — Table 1's 155 s swap paid twice).
//
// Policies: PolicyFIFO reproduces the legacy arrival-order behavior (so the
// paper-calibrated figures are unchanged); PolicyQoSScan enables classes,
// aging, SCAN ordering and LRU victims.
package sched

import (
	"fmt"
	"time"

	"ros/internal/obs"
	"ros/internal/rack"
	"ros/internal/sim"
)

// Class is the QoS class of a mechanical request. Lower values outrank
// higher ones under PolicyQoSScan; PolicyFIFO ignores class.
type Class int

// The QoS classes, highest priority first.
const (
	Interactive Class = iota // foreground read miss: a client is waiting
	Prefetch                 // maintenance prefetch / readahead
	Burn                     // background burn of sealed image sets
	Scrub                    // idle-time scrub, repair, recovery scans
	NumClasses
)

// String returns the metric-friendly class name.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Prefetch:
		return "prefetch"
	case Burn:
		return "burn"
	case Scrub:
		return "scrub"
	}
	return fmt.Sprintf("class%d", int(c))
}

// Policy selects the service discipline.
type Policy int

// Service disciplines.
const (
	// PolicyFIFO serves requests in arrival order with first-fit group and
	// victim selection — the legacy reactive behavior.
	PolicyFIFO Policy = iota
	// PolicyQoSScan serves by QoS class with deadline aging, orders
	// same-priority fetches SCAN/elevator-style by layer distance, and
	// picks eviction victims by LRU among groups without pending demand.
	PolicyQoSScan
)

// ParsePolicy parses "fifo" or "qos-scan".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fifo":
		return PolicyFIFO, nil
	case "qos-scan":
		return PolicyQoSScan, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want fifo or qos-scan)", s)
}

// String returns the knob spelling of the policy.
func (p Policy) String() string {
	if p == PolicyQoSScan {
		return "qos-scan"
	}
	return "fifo"
}

// Config tunes a Scheduler. The zero value is PolicyFIFO.
type Config struct {
	// Policy selects fifo (legacy order) or qos-scan.
	Policy Policy
	// Obs is the metrics registry for sched.* metrics (nil disables).
	Obs *obs.Registry
}

// classWeight is each class's base priority under qos-scan (higher is
// served first).
var classWeight = [NumClasses]int{Interactive: 8, Prefetch: 4, Burn: 2, Scrub: 1}

// agingStep is the waiting time that raises a request's priority by one, so
// background classes cannot starve: a burn outranks a fresh interactive
// read after ~12 min queued.
const agingStep = 2 * time.Minute

// Priority is the effective priority of a class-cl request that has waited
// waited: its class weight plus one per aging step. Admission control
// (internal/writepath) drains its queue by it too, so backpressure and drive
// arbitration agree on who goes first.
func Priority(cl Class, waited time.Duration) int {
	return classWeight[cl] + int(waited/agingStep)
}

// Grant is the scheduler's answer to an Acquire: which drive group to use
// and what mechanical work the caller owes before using it.
type Grant struct {
	// Group is the granted drive group index.
	Group int
	// Hit means the requested tray is already loaded in Group: no
	// mechanical work, no claim to release.
	Hit bool
	// Evict means Group currently holds another (idle) array; the caller
	// must unload it before loading its own tray.
	Evict bool
}

// request is one queued demand for a drive group.
type request struct {
	class Class
	tray  *rack.TrayID // fetch target; nil for a specific-group claim
	burn  bool         // burn request: never a Hit (its tray is blank)
	enq   time.Duration
	seq   int64
	c     *sim.Completion[Grant]
}

// demandKey packs a tray's coordinates into its key in Scheduler.demand, so
// counting demand formats nothing. An integer key also keeps the runtime's
// variable-length struct hash out of the binary.
func demandKey(id rack.TrayID) uint64 {
	return uint64(uint32(id.Roller))<<32 | uint64(uint16(id.Layer))<<16 | uint64(uint16(id.Slot))
}

// Scheduler arbitrates drive groups and (through grant ordering) the
// robotic arm for one rack library. It is driven entirely by the
// cooperative simulation — no locking needed.
type Scheduler struct {
	env *sim.Env
	cfg Config
	lib *rack.Library

	busy    []bool          // group claimed by a granted request
	lastUse []time.Duration // virtual time of last grant/release per group (LRU)
	pending []*request      // arrival order; service order is policy-derived
	seq     int64

	// demand counts outstanding interest per tray: queued fetch requests
	// plus explicit Pin holds (olfs pins a tray for the lifetime of a
	// coalesced fetch, covering waiters between grant and consumption).
	// Victim selection never evicts a tray with demand.
	demand map[uint64]int // by demandKey

	// scanDir is the per-roller elevator direction (+1 up, -1 down).
	scanDir []int
	// lastLayer is the per-roller layer of the most recent mechanical
	// grant — the virtual head position for SCAN ordering and the
	// arm-travel metric.
	lastLayer []int

	// starved is invoked when a fetch request is pending and every group
	// is claimed or burning (the §4.8 all-drives-burning case); olfs hooks
	// the interrupt-burn policy here.
	starved func()

	// Read-slot admission: per-group concurrent strip-reader capacity (one
	// slot per drive). Parallel scrub/recover column reads take a slot per chunk
	// and release it between chunks, so a queued interactive reader is
	// granted within about one chunk instead of waiting out a whole tray
	// scan. Under qos-scan, waiting readers are granted by class priority
	// with aging; under fifo, in arrival order (which still bounds the wait
	// to one chunk, since each round re-enqueues behind earlier waiters).
	readUsed []int
	readCap  []int
	readWait [][]*readWaiter
	readSeq  int64

	obs        *obs.Registry
	depthGauge *obs.Gauge
	depthBy    [NumClasses]*obs.Gauge
	waitBy     [NumClasses]*obs.Histogram
	grantsBy   [NumClasses]*obs.Counter
	evictions  *obs.Counter
	evictSkips *obs.Counter
	travel     *obs.Counter
	starveKick *obs.Counter
	readPar    *obs.Gauge     // read.parallelism: strip readers holding a slot
	stripWait  *obs.Histogram // read.strip_wait: time from slot request to grant
}

// readWaiter is one parked strip reader waiting for a group read slot.
type readWaiter struct {
	class Class
	enq   time.Duration
	seq   int64
	c     *sim.Completion[struct{}]
}

// New creates a scheduler over lib. Metrics are registered under sched.*
// in cfg.Obs when non-nil.
func New(env *sim.Env, cfg Config, lib *rack.Library) *Scheduler {
	s := &Scheduler{
		env:       env,
		cfg:       cfg,
		lib:       lib,
		busy:      make([]bool, len(lib.Groups)),
		lastUse:   make([]time.Duration, len(lib.Groups)),
		demand:    make(map[uint64]int),
		scanDir:   make([]int, len(lib.Rollers)),
		lastLayer: make([]int, len(lib.Rollers)),
		readUsed:  make([]int, len(lib.Groups)),
		readCap:   make([]int, len(lib.Groups)),
		readWait:  make([][]*readWaiter, len(lib.Groups)),
		obs:       cfg.Obs,
	}
	for gi, g := range lib.Groups {
		s.readCap[gi] = len(g.Drives)
	}
	for ri := range lib.Rollers {
		s.scanDir[ri] = -1 // the arm starts atop the drives; natural direction is down
		s.lastLayer[ri] = lib.ArmLayer(ri)
	}
	r := cfg.Obs
	s.depthGauge = r.Gauge("sched.queue_depth")
	for cl := Class(0); cl < NumClasses; cl++ {
		s.depthBy[cl] = r.Gauge("sched.queue_depth." + cl.String())
		s.waitBy[cl] = r.Histogram("sched.wait." + cl.String())
		s.grantsBy[cl] = r.Counter("sched.grants." + cl.String())
	}
	s.evictions = r.Counter("sched.evictions")
	s.evictSkips = r.Counter("sched.eviction_skips_demand")
	s.travel = r.Counter("sched.arm_travel_layers")
	s.starveKick = r.Counter("sched.starvation_kicks")
	s.readPar = r.Gauge("read.parallelism")
	s.stripWait = r.Histogram("read.strip_wait")
	return s
}

// AcquireReadSlot admits one strip reader onto drive group gi, blocking
// while all of the group's slots (one per drive) are held. Crews release and
// re-acquire between chunks, so an interactive reader queued here is granted
// within roughly one chunk-read even when a full-width scrub is in flight.
func (s *Scheduler) AcquireReadSlot(p *sim.Proc, class Class, gi int) {
	if gi < 0 || gi >= len(s.readUsed) {
		return
	}
	enq := s.env.Now()
	if s.readUsed[gi] < s.readCap[gi] {
		s.readUsed[gi]++
		s.readPar.Add(1)
		s.stripWait.Observe(0)
		return
	}
	s.readSeq++
	w := &readWaiter{class: class, enq: enq, seq: s.readSeq,
		c: sim.NewCompletion[struct{}](s.env)}
	s.readWait[gi] = append(s.readWait[gi], w)
	w.c.Wait(p)
	s.stripWait.ObserveSince(enq, s.env.Now())
}

// ReleaseReadSlot returns a strip-reader slot to group gi and hands it to
// the best waiter, if any.
func (s *Scheduler) ReleaseReadSlot(gi int) {
	if gi < 0 || gi >= len(s.readUsed) {
		return
	}
	if s.readUsed[gi] <= 0 {
		panic(fmt.Sprintf("sched: ReleaseReadSlot of unheld slot in group %d", gi))
	}
	if w := s.takeReadWaiter(gi); w != nil {
		// Slot transfers directly; readUsed and the gauge are unchanged.
		w.c.Resolve(struct{}{}, nil)
		return
	}
	s.readUsed[gi]--
	s.readPar.Add(-1)
}

// takeReadWaiter removes and returns the next read-slot waiter for group gi:
// arrival order under fifo, highest effective class priority (with aging,
// ties by arrival) under qos-scan.
func (s *Scheduler) takeReadWaiter(gi int) *readWaiter {
	q := s.readWait[gi]
	if len(q) == 0 {
		return nil
	}
	best := 0
	if s.cfg.Policy != PolicyFIFO {
		now := s.env.Now()
		prio := func(w *readWaiter) int { return Priority(w.class, now-w.enq) }
		for i := 1; i < len(q); i++ {
			if prio(q[i]) > prio(q[best]) {
				best = i
			}
		}
	}
	w := q[best]
	s.readWait[gi] = append(q[:best], q[best+1:]...)
	return w
}

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetStarvedHook installs the callback invoked (at most once per dispatch
// round) when a fetch request is pending and every group is claimed or
// burning. olfs uses it for the §4.8 interrupt-burn read policy.
func (s *Scheduler) SetStarvedHook(fn func()) { s.starved = fn }

// AcquireFetch blocks until the scheduler grants a drive group for loading
// tray. A Hit grant means the tray is already loaded (nothing to release);
// otherwise the caller owns the group — it must perform the unload (if
// Evict) and load, then call Release.
func (s *Scheduler) AcquireFetch(p *sim.Proc, class Class, tray rack.TrayID) Grant {
	return s.acquire(p, &request{class: class, tray: &tray})
}

// AcquireBurn blocks until the scheduler grants a drive group for burning
// onto the blank tray. The grant is never a Hit. The caller keeps the claim
// for the whole burn and calls Release when it ends; a successful burn
// leaves its array loaded, for a later claimant to evict.
func (s *Scheduler) AcquireBurn(p *sim.Proc, tray rack.TrayID) Grant {
	return s.acquire(p, &request{class: Burn, tray: &tray, burn: true})
}

func (s *Scheduler) acquire(p *sim.Proc, r *request) Grant {
	sp := obs.StartChild(p, "sched.wait")
	sp.Annotate("class", r.class.String())
	// Only a live span pays for formatting the tray.
	if r.tray != nil && sp != nil {
		sp.Annotate("tray", r.tray.String())
	}
	s.seq++
	r.seq = s.seq
	r.enq = s.env.Now()
	r.c = sim.NewCompletion[Grant](s.env)
	s.pending = append(s.pending, r)
	if r.tray != nil && !r.burn {
		s.demand[demandKey(*r.tray)]++
	}
	s.depthGauge.Add(1)
	s.depthBy[r.class].Add(1)
	s.dispatch()
	g, _ := r.c.Wait(p)
	sp.AnnotateInt("group", int64(g.Group))
	if g.Hit {
		sp.Annotate("hit", "true")
	}
	if g.Evict {
		sp.Annotate("evict", "true")
	}
	sp.End(p)
	return g
}

// TryClaim claims a specific group without queueing (the PrefetchTray
// maintenance path). It fails if the group is already claimed.
func (s *Scheduler) TryClaim(gi int) bool {
	if gi < 0 || gi >= len(s.busy) || s.busy[gi] {
		return false
	}
	s.busy[gi] = true
	s.lastUse[gi] = s.env.Now()
	return true
}

// Release returns a claimed group to the pool and dispatches waiters.
func (s *Scheduler) Release(gi int) {
	if gi < 0 || gi >= len(s.busy) || !s.busy[gi] {
		panic(fmt.Sprintf("sched: Release of unclaimed group %d", gi))
	}
	s.busy[gi] = false
	s.lastUse[gi] = s.env.Now()
	s.dispatch()
}

// Pin registers outstanding interest in a tray beyond the queued request —
// olfs holds a pin for the lifetime of a coalesced fetch so the tray cannot
// be victimized between the mechanical load and the waiters' reads.
func (s *Scheduler) Pin(tray rack.TrayID) { s.demand[demandKey(tray)]++ }

// Unpin drops a Pin hold and re-dispatches (a victim-seeker may have been
// waiting for the demand to clear).
func (s *Scheduler) Unpin(tray rack.TrayID) {
	k := demandKey(tray)
	if s.demand[k] <= 0 {
		panic("sched: Unpin without Pin for " + tray.String())
	}
	s.demand[k]--
	if s.demand[k] == 0 {
		delete(s.demand, k)
	}
	s.dispatch()
}

// Pinned reports whether tray has outstanding demand (a queued fetch or a
// Pin hold), which keeps victim selection from evicting it.
func (s *Scheduler) Pinned(tray rack.TrayID) bool { return s.demand[demandKey(tray)] > 0 }

// GroupIdle reports whether group gi is unclaimed and not burning — the
// scrub daemon's "is there truly idle hardware" probe.
func (s *Scheduler) GroupIdle(gi int) bool {
	if gi < 0 || gi >= len(s.busy) {
		return false
	}
	return !s.busy[gi] && !s.lib.Groups[gi].AnyBurning()
}

// Depths returns the per-class pending-request counts (operational
// visibility: rosctl status).
func (s *Scheduler) Depths() [NumClasses]int {
	var d [NumClasses]int
	for _, r := range s.pending {
		d[r.class]++
	}
	return d
}

// dispatch grants as many pending requests as current group state allows,
// in policy order, then fires the starvation hook if a fetch remains
// blocked with every group claimed or burning.
func (s *Scheduler) dispatch() {
	for {
		granted := false
		for _, r := range s.serviceOrder() {
			g, ok := s.groupFor(r)
			if !ok {
				continue
			}
			s.grant(r, g)
			granted = true
			break // group state changed; recompute order and candidates
		}
		if !granted {
			break
		}
	}
	if s.starved != nil && s.fetchStarved() {
		s.starveKick.Add(1)
		s.starved()
	}
}

// serviceOrder returns pending requests in the order they should be
// considered. PolicyFIFO: arrival order. PolicyQoSScan: effective priority
// (class weight + aging) descending, then SCAN key, then arrival.
func (s *Scheduler) serviceOrder() []*request {
	if len(s.pending) == 0 {
		return nil
	}
	out := append([]*request(nil), s.pending...)
	if s.cfg.Policy == PolicyFIFO {
		return out // pending is already in arrival order
	}
	now := s.env.Now()
	prio := func(r *request) int { return Priority(r.class, now-r.enq) }
	// Insertion sort: n is tiny and stability keeps ties in arrival order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j], out[j-1]
			pa, pb := prio(a), prio(b)
			if pa > pb || (pa == pb && s.scanKey(a) < s.scanKey(b)) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// scanKey orders same-priority fetches elevator-style: requests ahead of
// the virtual head position in the current sweep direction come first,
// nearest first; requests behind are served after the direction flips, also
// nearest-after-flip first. Requests without a tray sort last.
func (s *Scheduler) scanKey(r *request) int {
	if r.tray == nil {
		return 3 * rack.LayersPerRoller
	}
	ri, layer := r.tray.Roller, r.tray.Layer
	head, dir := s.lastLayer[ri], s.scanDir[ri]
	delta := layer - head
	dist := delta
	if dist < 0 {
		dist = -dist
	}
	if delta == 0 || delta*dir > 0 {
		return dist // ahead in the current sweep
	}
	return rack.LayersPerRoller + dist // behind: after the flip
}

// groupFor finds a servable group for r without claiming it.
func (s *Scheduler) groupFor(r *request) (Grant, bool) {
	// A loaded, unclaimed group already holding the tray: free hit.
	if r.tray != nil && !r.burn {
		for gi, g := range s.lib.Groups {
			if !s.busy[gi] && g.Source != nil && *g.Source == *r.tray {
				return Grant{Group: gi, Hit: true}, true
			}
		}
	}
	// An empty group (Table 1 row 4: plain load, ~70 s).
	for gi, g := range s.lib.Groups {
		if !s.busy[gi] && !g.Loaded() {
			return Grant{Group: gi}, true
		}
	}
	// A victim among loaded idle groups (Table 1 row 5: swap, ~155 s).
	// Never evict a burning group, and never evict a tray with pending
	// demand — other waiters are queued for exactly that array.
	best := -1
	for gi, g := range s.lib.Groups {
		if s.busy[gi] || !g.Loaded() || g.AnyBurning() {
			continue
		}
		if s.demand[demandKey(*g.Source)] > 0 {
			s.evictSkips.Add(1)
			continue
		}
		if best < 0 {
			best = gi
			if s.cfg.Policy == PolicyFIFO {
				break // legacy first-idle-loaded choice
			}
			continue
		}
		if s.lastUse[gi] < s.lastUse[best] {
			best = gi // LRU under qos-scan
		}
	}
	if best >= 0 {
		return Grant{Group: best, Evict: true}, true
	}
	return Grant{}, false
}

// grant transfers group g to request r and wakes it.
func (s *Scheduler) grant(r *request, g Grant) {
	for i, q := range s.pending {
		if q == r {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	if r.tray != nil && !r.burn {
		k := demandKey(*r.tray)
		s.demand[k]--
		if s.demand[k] <= 0 {
			delete(s.demand, k)
		}
	}
	if !g.Hit {
		s.busy[g.Group] = true
		if g.Evict {
			s.evictions.Add(1)
		}
		if r.tray != nil {
			ri, layer := r.tray.Roller, r.tray.Layer
			d := layer - s.lastLayer[ri]
			if d != 0 {
				if d < 0 {
					s.scanDir[ri], d = -1, -d
				} else {
					s.scanDir[ri] = 1
				}
				s.travel.Add(int64(d))
			}
			s.lastLayer[ri] = layer
		}
	}
	s.lastUse[g.Group] = s.env.Now()
	s.depthGauge.Add(-1)
	s.depthBy[r.class].Add(-1)
	s.grantsBy[r.class].Add(1)
	s.waitBy[r.class].ObserveSince(r.enq, s.env.Now())
	r.c.Resolve(g, nil)
}

// fetchStarved reports whether a fetch request is pending while every group
// is claimed or burning — the legacy trigger for the interrupt-burn policy.
func (s *Scheduler) fetchStarved() bool {
	hasFetch := false
	for _, r := range s.pending {
		if r.tray != nil && !r.burn {
			hasFetch = true
			break
		}
	}
	if !hasFetch {
		return false
	}
	for gi, g := range s.lib.Groups {
		if !s.busy[gi] && !g.AnyBurning() {
			return false
		}
	}
	return true
}
