// Package cluster federates N independent simulated ROS racks behind one
// namespace. Each rack is a full rack+optical+olfs stack on the shared
// simulation clock; every ros.System is a federation of one or more racks,
// and the federation owns three concerns no single rack can express:
//
//   - Placement: the Sequential Checking reallocation-free distribution
//     (placement.go) assigns every file a replica set of racks. Adding a
//     rack never relocates an existing disc image.
//   - Replication: writes fan out to Replicas racks; reads pick the live
//     replica with the cheapest mechanical cost (buffer residency, tray
//     already in a drive, arm travel, group busyness) and fail over when a
//     rack is offline, busy, or its tray has failed.
//   - Health: a per-rack up/degraded/offline state machine driven by the
//     rack.offline / rack.degraded fault points and admin transitions, with
//     background re-replication of under-replicated images — source reads
//     admitted through the owning rack's QoS scheduler at scrub priority.
//
// Everything is deterministic: routing and placement are pure functions of
// the catalog and the fault plane, and the re-replication daemon is queue-
// driven (no timers), so campaigns replay exactly from a seed.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/obs"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/vfs"
	"ros/internal/writepath"
)

// Cluster errors.
var (
	ErrNoReplica = errors.New("cluster: no live replica")
	ErrStopped   = errors.New("cluster: stopped")
)

// Config sizes a federation.
type Config struct {
	// Racks is the initial member count (>= 1).
	Racks int
	// Replicas is the copies kept per file: 0 means 2, and the count is
	// clamped to Racks. A later AddRack does not raise it.
	Replicas int
	// Stack sizes every member rack. Stack.Obs is the system registry: the
	// cluster.* metrics record there, while every member rack gets a private
	// registry so its olfs.*/rack.* counters don't collide and per-rack
	// telemetry stays separable (merged views recombine them).
	Stack StackConfig
	// Sampler, when set, has each member's registry registered as a labeled
	// telemetry source (label = rack name) as racks join, including growth
	// via AddRack mid-run.
	Sampler *obs.Sampler
}

// entry is one namespace file: its replica set, primary first.
type entry struct {
	replicas []int
}

// Cluster is the federation.
type Cluster struct {
	env      *sim.Env
	cfg      Config
	replicas int
	racks    []*Rack
	placer   *placer
	tracer   *obs.Tracer

	entries map[string]*entry
	paths   []string // insertion order — deterministic scan order

	rereplQ *sim.Queue[string]
	rerepl  *sim.Daemon // drains rereplQ
	queued  map[string]bool
	stopped bool

	writes []*replicaWrite // replicated-write tables not in use

	m clusterMetrics
}

// clusterMetrics are the cluster.* registry handles.
type clusterMetrics struct {
	writes         *obs.Counter
	reads          *obs.Counter
	replicaWrites  *obs.Counter
	secondaryReads *obs.Counter
	failovers      *obs.Counter
	routeErrors    *obs.Counter
	transitions    *obs.Counter
	skipUnhealthy  *obs.Counter
	rereplDone     *obs.Counter

	racksUp      *obs.Gauge
	racksOffline *obs.Gauge
	backlog      *obs.Gauge
	imbalance    *obs.Gauge // worst per-rack deviation from mean load, percent
}

// New assembles a federation of cfg.Racks identical rack stacks on env and
// starts the re-replication daemon.
func New(env *sim.Env, cfg Config) (*Cluster, error) {
	if cfg.Racks < 1 {
		cfg.Racks = 1
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > cfg.Racks {
		cfg.Replicas = cfg.Racks
	}
	c := &Cluster{
		env:      env,
		cfg:      cfg,
		replicas: cfg.Replicas,
		placer:   newPlacer(0),
		entries:  make(map[string]*entry),
		rereplQ:  sim.NewQueue[string](env),
		queued:   make(map[string]bool),
	}
	reg := cfg.Stack.Obs
	c.bindMetrics(reg)
	// One tracer for the federation: every rack records into it, so trace
	// IDs are unique and trace.* is counted once, in the federation's own
	// registry. Its default journal holds the default per rack it starts
	// with, what as many journals of their own would hold between them.
	tcfg := cfg.Stack.FS.Trace
	if tcfg.Capacity == 0 {
		tcfg.Capacity = obs.DefaultTraceCapacity * cfg.Racks
	}
	c.tracer = obs.NewTracer(env, tcfg)
	reg.AttachTracer(c.tracer)
	for i := 0; i < cfg.Racks; i++ {
		if _, err := c.addRack(); err != nil {
			return nil, err
		}
	}
	c.rerepl = sim.NewDaemon(env, "cluster-rerepl", c.drainRerepl)
	return c, nil
}

func (c *Cluster) bindMetrics(r *obs.Registry) {
	c.m = clusterMetrics{
		writes:         r.Counter("cluster.writes"),
		reads:          r.Counter("cluster.reads"),
		replicaWrites:  r.Counter("cluster.replica_writes"),
		secondaryReads: r.Counter("cluster.secondary_reads"),
		failovers:      r.Counter("cluster.failovers"),
		routeErrors:    r.Counter("cluster.route_errors"),
		transitions:    r.Counter("cluster.health_transitions"),
		skipUnhealthy:  r.Counter("cluster.skipped_unhealthy"),
		rereplDone:     r.Counter("cluster.rerepl_done"),
		racksUp:        r.Gauge("cluster.racks_up"),
		racksOffline:   r.Gauge("cluster.racks_offline"),
		backlog:        r.Gauge("cluster.rerepl_backlog"),
		imbalance:      r.Gauge("cluster.imbalance_pct"),
	}
}

// addRack builds one more member on the shared clock. Every member gets a
// private registry, which is what gives the sampler its rack-labeled series
// and Status its per-rack counts; the configured system registry carries only
// federation-level cluster.* metrics.
func (c *Cluster) addRack() (*Rack, error) {
	scfg := c.cfg.Stack
	scfg.Obs = nil
	scfg.FS.Tracer = c.tracer
	r, err := NewRackStack(c.env, len(c.racks), scfg)
	if err != nil {
		return nil, err
	}
	c.racks = append(c.racks, r)
	c.placer.grow()
	c.refreshHealthGauges()
	if c.cfg.Sampler != nil {
		c.cfg.Sampler.AddSource(r.Name, r.Reg)
	}
	return r, nil
}

// AddRack grows the federation by one rack. Existing placements are never
// touched — the Sequential Checking property — so no disc image moves; new
// writes drain toward the empty newcomer until loads level out.
func (c *Cluster) AddRack() (*Rack, error) {
	if c.stopped {
		return nil, ErrStopped
	}
	return c.addRack()
}

// Racks returns the federation members in index order.
func (c *Cluster) Racks() []*Rack { return c.racks }

// Replicas returns the configured replica count.
func (c *Cluster) Replicas() int { return c.replicas }

// Tracer returns the federation's one tracer: federation requests
// (cluster.write, cluster.read, cluster.rereplicate) and every rack's own
// operations (olfs.burn, olfs.fetch, ...) are traced into it.
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// Loads returns the per-rack replica counts the placer tracks.
func (c *Cluster) Loads() []int64 {
	return append([]int64(nil), c.placer.loads...)
}

// ImbalancePct returns the worst per-rack deviation from the mean load as a
// percentage of the mean.
func (c *Cluster) ImbalancePct() float64 { return c.placer.imbalancePct() }

// Stop closes the re-replication queue and stops every rack's filesystem.
func (c *Cluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.rereplQ.Close()
	for _, r := range c.racks {
		r.FS.Stop()
	}
}

// ---------------------------------------------------------------------------
// Health state machine

// setHealth moves rack r to h, maintaining gauges and emitting a transition
// event. Going offline enqueues a re-replication scan for the rack's images.
func (c *Cluster) setHealth(r *Rack, h Health) {
	if r.health == h {
		return
	}
	from := r.health
	r.health = h
	c.m.transitions.Add(1)
	c.refreshHealthGauges()
	c.env.Emit("cluster.health", r.Name, func() string { return from.String() + "->" + h.String() })
	if h == HealthOffline {
		c.enqueueScan(r.Index)
	}
}

// SetHealth is the admin transition (rosctl cluster kill/revive, chaos rack
// kills). Fault-driven transitions go through routeCheck/Probe.
func (c *Cluster) SetHealth(ri int, h Health) {
	if ri >= 0 && ri < len(c.racks) {
		c.setHealth(c.racks[ri], h)
	}
}

func (c *Cluster) refreshHealthGauges() {
	var up, off int64
	for _, r := range c.racks {
		switch r.health {
		case HealthUp:
			up++
		case HealthOffline:
			off++
		}
	}
	c.m.racksUp.Set(up)
	c.m.racksOffline.Set(off)
}

// Probe re-evaluates every rack against the fault plane: racks whose
// rack.offline / rack.degraded points no longer fire recover to Up. Offline
// and degraded states are otherwise sticky (routing skips offline racks, so
// nothing re-checks them), which is why heal phases probe explicitly.
func (c *Cluster) Probe(p *sim.Proc) {
	for _, r := range c.racks {
		if err := faultinject.Check(p, faultinject.PointRackOffline, r.Name); err != nil {
			c.setHealth(r, HealthOffline)
			continue
		}
		if err := faultinject.Check(p, faultinject.PointRackDegraded, r.Name); err != nil {
			c.setHealth(r, HealthDegraded)
			continue
		}
		c.setHealth(r, HealthUp)
	}
}

// routeCheck gates one routed operation on rack r: consult the fault plane,
// updating the state machine on fires. An offline verdict fails the route;
// a degraded rack still serves.
func (c *Cluster) routeCheck(p *sim.Proc, r *Rack) error {
	if r.health == HealthOffline {
		return fmt.Errorf("cluster: %s is offline", r.Name)
	}
	if err := faultinject.Check(p, faultinject.PointRackOffline, r.Name); err != nil {
		c.setHealth(r, HealthOffline)
		return fmt.Errorf("cluster: %s went offline: %w", r.Name, err)
	}
	if err := faultinject.Check(p, faultinject.PointRackDegraded, r.Name); err != nil {
		c.setHealth(r, HealthDegraded)
	}
	return nil
}

// routeTo runs fn against rack ri under a cluster.route span.
func (c *Cluster) routeTo(p *sim.Proc, opName string, ri int, fn func(r *Rack) error) error {
	r := c.racks[ri]
	sp := obs.StartChild(p, "cluster.route")
	sp.Annotate("rack", r.Name)
	sp.Annotate("op", opName)
	err := c.routeCheck(p, r)
	if err == nil {
		err = fn(r)
	}
	sp.Fail(p, err)
	if err != nil {
		c.m.routeErrors.Add(1)
	}
	return err
}

// noteFailover records one replica failover: counter, a marker span in the
// active trace, and a structured event.
func (c *Cluster) noteFailover(p *sim.Proc, opName string, from, to int, cause error) {
	c.m.failovers.Add(1)
	sp := obs.StartChild(p, "cluster.failover")
	sp.Annotate("op", opName)
	sp.Annotate("from", c.racks[from].Name)
	sp.Annotate("to", c.racks[to].Name)
	if cause != nil {
		sp.Annotate("cause", cause.Error())
	}
	sp.End(p)
	c.env.Emit("cluster.failover", opName, func() string { return c.racks[from].Name + "->" + c.racks[to].Name })
}

// placeLimit is the worst health a rack may have to receive a new replica:
// Up while any rack is up, else — the whole federation is limping —
// Degraded, so anything not offline.
func (c *Cluster) placeLimit() Health {
	for _, r := range c.racks {
		if r.health == HealthUp {
			return HealthUp
		}
	}
	return HealthDegraded
}

// ---------------------------------------------------------------------------
// Write path

// replicaWrite is the fan-out table of one replicated write: the racks of the
// current round and one error slot per rack, which one sim.Proc.Fork fills,
// rack i on child i. Tables come from the cluster's free list, so a write
// allocates none once the list has grown to the peak number in flight.
type replicaWrite struct {
	c     *Cluster
	path  string
	data  []byte
	racks []int                           // this round's targets
	errs  []error                         // errs[i]: what writing racks[i] returned
	run   func(sp *sim.Proc, i int) error // do, bound once
}

func (c *Cluster) replicaWrite(path string, data []byte) *replicaWrite {
	var w *replicaWrite
	if n := len(c.writes); n > 0 {
		w, c.writes = c.writes[n-1], c.writes[:n-1]
	} else {
		w = &replicaWrite{c: c}
		w.run = w.do
	}
	w.path, w.data = path, data
	return w
}

// release puts w back on the cluster's list. Nothing it referenced stays
// reachable from it.
func (w *replicaWrite) release() {
	clear(w.errs[:cap(w.errs)]) // an earlier, wider round's slots too
	w.path, w.data, w.racks = "", nil, nil
	w.c.writes = append(w.c.writes, w)
}

// round writes every rack of racks at once and waits for the slowest; each
// rack's outcome is in w.errs.
func (w *replicaWrite) round(p *sim.Proc, racks []int) {
	w.racks = racks
	if cap(w.errs) < len(racks) {
		w.errs = make([]error, len(racks))
	}
	w.errs = w.errs[:len(racks)]
	p.Fork("replica-write", len(racks), w.run)
}

// do writes the replica on rack i of the round.
func (w *replicaWrite) do(sp *sim.Proc, i int) error {
	err := w.c.routeTo(sp, "write", w.racks[i], func(r *Rack) error {
		return r.FS.WriteFile(sp, w.path, w.data)
	})
	if err == nil {
		w.c.m.replicaWrites.Add(1)
	}
	w.errs[i] = err
	return err
}

// WriteFile stores path on its replica set (placing it on first write). The
// replicas are written at once, so the write is acknowledged when the slowest
// of them lands, not after their sum. A target that fails is replaced by a
// substitute rack, and the substitutes of one round are written together in
// the next, until a round has no failure or no substitute can be placed; so
// every target is tried before WriteFile returns. The write succeeds when at
// least one replica holds it, and a short set is enqueued for background
// re-replication. When every target fails, the error wraps the last rack's,
// so a write shed by admission control still matches writepath.ErrOverload.
func (c *Cluster) WriteFile(p *sim.Proc, path string, data []byte) (err error) {
	if c.stopped {
		return ErrStopped
	}
	op := c.tracer.StartOp(p, "cluster.write", "interactive")
	op.Annotate("path", path)
	defer func() { op.Finish(p, err) }()
	c.m.writes.Add(1)

	e := c.entries[path]
	var targets []int
	if e == nil {
		limit := c.placeLimit()
		targets = c.placer.place(path, c.replicas, func(i int) bool { return c.racks[i].health <= limit })
		if len(targets) == 0 {
			return fmt.Errorf("%w for write of %s", ErrNoReplica, path)
		}
	} else {
		targets = e.replicas
	}

	// involved is every rack this write has tried or queued, in order. Its
	// capacity is capped so that a substitute's append copies rather than
	// writing into e.replicas.
	involved := targets[:len(targets):len(targets)]
	var lost []int // involved racks whose write failed
	var lastErr error
	w := c.replicaWrite(path, data)
	for next := 0; next < len(involved); {
		racks := involved[next:]
		next = len(involved)
		w.round(p, racks)
		for i, werr := range w.errs {
			if werr == nil {
				continue
			}
			ri := racks[i]
			lastErr = werr
			lost = append(lost, ri)
			// The target dropped out: release its load and try to move the
			// replica to a live rack not yet involved in this write.
			c.placer.unplace(ri)
			limit := c.placeLimit()
			sub := c.placer.place(path, 1, func(j int) bool {
				return c.racks[j].health <= limit && !slices.Contains(involved, j)
			})
			if len(sub) == 1 {
				c.noteFailover(p, "write", ri, sub[0], werr)
				involved = append(involved, sub[0])
			}
		}
	}
	w.release()
	written := involved
	if len(lost) > 0 {
		written = slices.DeleteFunc(slices.Clone(involved), func(ri int) bool { return slices.Contains(lost, ri) })
	}
	if len(written) == 0 {
		if e == nil {
			// Nothing durable; the placement was already released per target.
			return fmt.Errorf("cluster: write of %s failed on every rack: %w", path, lastErr)
		}
		// The old replica set stays authoritative; restore its loads.
		for _, ri := range e.replicas {
			c.placer.claim(ri)
		}
		return fmt.Errorf("cluster: overwrite of %s failed on every replica: %w", path, lastErr)
	}
	if e == nil {
		e = &entry{}
		c.entries[path] = e
		c.paths = append(c.paths, path)
	}
	e.replicas = written
	c.m.imbalance.Set(int64(c.placer.imbalancePct()))
	if len(written) < c.replicas {
		c.enqueue(path)
	}
	return nil
}

// PrimaryOf returns the index of path's primary rack.
func (c *Cluster) PrimaryOf(path string) (int, bool) {
	e := c.entries[path]
	if e == nil || len(e.replicas) == 0 {
		return 0, false
	}
	return e.replicas[0], true
}

// ReplicasOf returns path's replica set (primary first), or nil.
func (c *Cluster) ReplicasOf(path string) []int {
	e := c.entries[path]
	if e == nil {
		return nil
	}
	return append([]int(nil), e.replicas...)
}

// Unlink removes path from the federation: every live rack whose namespace
// holds it unlinks it, then the cluster forgets the entry and releases its
// replicas' placement loads, so ReadFile fails with mv.ErrNotFound and
// re-replication never brings it back. Burned copies stay on their WORM
// discs (§4.6); only the names go.
func (c *Cluster) Unlink(p *sim.Proc, path string) error {
	if c.stopped {
		return ErrStopped
	}
	held := false
	for _, r := range c.racks {
		if r.health == HealthOffline {
			continue
		}
		if _, ok := r.FS.MV.Lookup(path); !ok {
			continue
		}
		held = true
		if err := r.FS.Unlink(p, path); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	e := c.entries[path]
	if e == nil && !held {
		return fmt.Errorf("%w: %s", mv.ErrNotFound, path)
	}
	if e != nil {
		for _, ri := range e.replicas {
			c.placer.unplace(ri)
		}
		delete(c.entries, path)
		c.paths = slices.DeleteFunc(c.paths, func(q string) bool { return q == path })
		c.m.imbalance.Set(int64(c.placer.imbalancePct()))
	}
	return nil
}

// Stat returns path's index from the first live rack whose namespace holds
// it, path's primary replica first and then the others in index order, and
// that rack, whose catalog locates the index's parts.
func (c *Cluster) Stat(p *sim.Proc, path string) (*mv.Index, *Rack, error) {
	order := c.racks
	if ri, ok := c.PrimaryOf(path); ok {
		order = append([]*Rack{c.racks[ri]}, c.racks...)
	}
	for _, r := range order {
		if r.health == HealthOffline {
			continue
		}
		if _, ok := r.FS.MV.Lookup(path); ok {
			ix, err := r.FS.MV.Stat(p, path)
			return ix, r, err
		}
	}
	return nil, nil, fmt.Errorf("%w: %s", mv.ErrNotFound, path)
}

// ReadDir lists directory path across the federation: the union of every
// live rack's listing, one entry per name (the lowest-indexed rack's), sorted
// by name. It fails with vfs.ErrNotFound only when no live rack has path.
func (c *Cluster) ReadDir(p *sim.Proc, path string) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	seen := make(map[string]bool)
	found := false
	for _, r := range c.racks {
		if r.health == HealthOffline {
			continue
		}
		des, err := r.FS.ReadDir(p, path)
		if errors.Is(err, vfs.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		found = true
		for _, de := range des {
			if !seen[de.Name] {
				seen[de.Name] = true
				out = append(out, de)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotFound, path)
	}
	slices.SortFunc(out, func(a, b vfs.DirEntry) int { return cmp.Compare(a.Name, b.Name) })
	return out, nil
}

// ---------------------------------------------------------------------------
// Read path

// busyPenalty is added to a replica's mechanical cost when none of its
// rack's drive groups is idle (the read would queue behind burns/fetches),
// and a larger one when the rack is degraded — both keep the replica usable
// while steering reads toward cheaper copies.
const (
	busyPenalty     = 10 * time.Minute
	degradedPenalty = time.Hour
	loadedCost      = 250 * time.Millisecond // tray already in a drive group
	trayLoadCost    = 70 * time.Second       // pick+place+load on top of travel
	// failedTrayCost ranks a copy on a DAFailed tray after every healthy
	// copy (which costs under two hours): olfs still reads it, rebuilding
	// lost discs from parity, so it is the last resort rather than none.
	failedTrayCost = 1000 * time.Hour
)

// candidate is one readable replica, ordered by (cost, rack index).
type candidate struct {
	ri   int
	cost time.Duration
}

// mechCost estimates the mechanical cost of reading path from rack r using
// the sched travel model: free for buffer-resident data, near-free when the
// tray is already in a drive, else arm travel plus tray load, plus penalties
// for busy groups, degraded health and a failed tray. ok=false means the
// rack cannot locate the copy (catalog miss) and must be skipped.
func (c *Cluster) mechCost(r *Rack, path string) (time.Duration, bool) {
	var cost time.Duration
	if r.health == HealthDegraded {
		cost += degradedPenalty
	}
	ix, ok := r.FS.MV.Lookup(path)
	if !ok {
		return 0, false
	}
	cur := ix.Current()
	if cur == nil || len(cur.Parts) == 0 {
		return cost, true // metadata-only; any live rack serves it
	}
	id := cur.Parts[0]
	if b, ok := r.FS.Buckets.Resident(id); ok && !b.Raw {
		return cost, true // tier 1/2: buffer-resident
	}
	addr, ok := r.FS.Cat.Locate(id)
	if !ok {
		return 0, false
	}
	if r.FS.Cat.DAState(addr.Tray) == image.DAFailed {
		return cost + failedTrayCost, true
	}
	loaded := false
	idle := false
	for gi, g := range r.Lib.Groups {
		if g.Source != nil && *g.Source == addr.Tray {
			loaded = true
		}
		if r.FS.Sched().GroupIdle(gi) {
			idle = true
		}
	}
	if loaded {
		return cost + loadedCost, true
	}
	cost += r.Lib.TravelCost(r.Lib.ArmLayer(addr.Tray.Roller), addr.Tray) + trayLoadCost
	if !idle {
		cost += busyPenalty
	}
	return cost, true
}

// readPlan appends path's live replicas to cands, ordered by mechanical
// cost. Offline racks and copies a rack cannot locate are dropped, and copies
// on failed trays go last; both count as cluster.skipped_unhealthy. A lone
// live replica is appended without costing: there is nothing to rank it
// against. Callers pass a stack buffer, so a plan costs no allocation.
func (c *Cluster) readPlan(cands []candidate, e *entry, path string) []candidate {
	live := 0
	for _, ri := range e.replicas {
		if c.racks[ri].health != HealthOffline {
			live++
		}
	}
	for _, ri := range e.replicas {
		r := c.racks[ri]
		if r.health == HealthOffline {
			continue
		}
		if live == 1 {
			return append(cands, candidate{ri: ri})
		}
		cost, ok := c.mechCost(r, path)
		if !ok || cost >= failedTrayCost {
			c.m.skipUnhealthy.Add(1)
		}
		if ok {
			cands = append(cands, candidate{ri: ri, cost: cost})
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		return a.ri - b.ri
	})
	return cands
}

// readVia routes one whole-file read to rack ri at the given QoS class.
func (c *Cluster) readVia(p *sim.Proc, ri int, path string, class sched.Class) ([]byte, error) {
	var data []byte
	err := c.routeTo(p, "read", ri, func(r *Rack) error {
		var rerr error
		data, rerr = r.FS.ReadFileClass(p, path, class)
		return rerr
	})
	return data, err
}

// ReadFile reads path from the cheapest live replica, failing over down the
// candidate list when a rack drops, errors, or goes offline mid-read.
func (c *Cluster) ReadFile(p *sim.Proc, path string) (data []byte, err error) {
	if c.stopped {
		return nil, ErrStopped
	}
	op := c.tracer.StartOp(p, "cluster.read", "interactive")
	op.Annotate("path", path)
	defer func() { op.Finish(p, err) }()
	c.m.reads.Add(1)

	e := c.entries[path]
	if e == nil {
		return nil, mv.ErrNotFound
	}
	var buf [4]candidate
	cands := c.readPlan(buf[:0], e, path)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w for %s", ErrNoReplica, path)
	}
	var lastErr error
	prev := -1
	for _, cand := range cands {
		if prev >= 0 {
			c.noteFailover(p, "read", prev, cand.ri, lastErr)
		}
		data, lastErr = c.readVia(p, cand.ri, path, sched.Interactive)
		if lastErr == nil {
			if cand.ri != e.replicas[0] {
				c.m.secondaryReads.Add(1)
			}
			return data, nil
		}
		prev = cand.ri
	}
	return nil, lastErr
}

// ---------------------------------------------------------------------------
// Replica-aware read handles

// rackFile is the slice of olfs's (unexported) fileReader the handle layer
// needs.
type rackFile interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) (int, error)
	Close(p *sim.Proc) error
	Size() int64
}

// File is an open replica-aware read handle: reads go to the handle's
// current rack and transparently fail over (reopening on the next-cheapest
// replica) when that rack errors or drops.
type File struct {
	c    *Cluster
	path string
	ri   int
	h    rackFile
}

// OpenFile opens path on the cheapest live replica.
func (c *Cluster) OpenFile(p *sim.Proc, path string) (*File, error) {
	if c.stopped {
		return nil, ErrStopped
	}
	e := c.entries[path]
	if e == nil {
		return nil, mv.ErrNotFound
	}
	f := &File{c: c, path: path, ri: -1}
	if err := f.reopen(p, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// reopen attaches the handle to the cheapest live replica other than the
// one it just failed on.
func (f *File) reopen(p *sim.Proc, cause error) error {
	c := f.c
	e := c.entries[f.path]
	if e == nil {
		return mv.ErrNotFound
	}
	failed := f.ri
	var lastErr error
	var buf [4]candidate
	for _, cand := range c.readPlan(buf[:0], e, f.path) {
		if cand.ri == failed {
			continue
		}
		var h rackFile
		err := c.routeTo(p, "open", cand.ri, func(r *Rack) error {
			fr, oerr := r.FS.OpenFile(p, f.path)
			if oerr == nil {
				h = fr
			}
			return oerr
		})
		if err == nil {
			if failed >= 0 {
				c.noteFailover(p, "open", failed, cand.ri, cause)
			}
			f.ri, f.h = cand.ri, h
			return nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w for %s", ErrNoReplica, f.path)
	}
	return lastErr
}

// ReadAt reads at an absolute offset, failing over to another replica once
// if the current rack errors or has gone offline.
func (f *File) ReadAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	if f.h == nil {
		return 0, fmt.Errorf("cluster: read on closed handle %s", f.path)
	}
	if f.c.racks[f.ri].health != HealthOffline {
		if err := f.c.routeCheck(p, f.c.racks[f.ri]); err == nil {
			n, rerr := f.h.ReadAt(p, buf, off)
			if rerr == nil {
				return n, nil
			}
			if err := f.reopen(p, rerr); err != nil {
				return n, rerr
			}
			return f.h.ReadAt(p, buf, off)
		}
	}
	if err := f.reopen(p, fmt.Errorf("cluster: %s offline", f.c.racks[f.ri].Name)); err != nil {
		return 0, err
	}
	return f.h.ReadAt(p, buf, off)
}

// Close releases the underlying rack handle.
func (f *File) Close(p *sim.Proc) error {
	if f.h == nil {
		return nil
	}
	err := f.h.Close(p)
	f.h = nil
	return err
}

// ---------------------------------------------------------------------------
// Background re-replication

// enqueue queues path for the re-replication daemon (deduplicated).
func (c *Cluster) enqueue(path string) {
	if c.stopped || c.queued[path] {
		return
	}
	c.queued[path] = true
	c.m.backlog.Add(1)
	c.rereplQ.Push(path)
	c.rerepl.Wake()
}

// enqueueScan queues every file whose replica set includes rack ri and is
// now under-replicated (the rack just went offline). Scan order follows the
// deterministic path-creation order.
func (c *Cluster) enqueueScan(ri int) {
	for _, path := range c.paths {
		e := c.entries[path]
		if e == nil {
			continue
		}
		member, live := false, 0
		for _, m := range e.replicas {
			if m == ri {
				member = true
			}
			if c.racks[m].health != HealthOffline {
				live++
			}
		}
		if member && live < c.replicas {
			c.enqueue(path)
		}
	}
}

// RequeueUnderReplicated rescans the namespace and queues everything short
// of its replica target (heal phases call this after Probe).
func (c *Cluster) RequeueUnderReplicated() int {
	n := 0
	for _, path := range c.paths {
		e := c.entries[path]
		if e == nil {
			continue
		}
		live := 0
		for _, m := range e.replicas {
			if c.racks[m].health != HealthOffline {
				live++
			}
		}
		if live < c.replicas {
			c.enqueue(path)
			n++
		}
	}
	return n
}

// Backlog returns the re-replication queue depth.
func (c *Cluster) Backlog() int { return c.rereplQ.Len() }

// drainRerepl is the re-replication daemon's body: it empties the
// under-replication queue. For each file it copies the current version from
// the cheapest live replica — read at scrub priority through that rack's QoS
// scheduler — onto a freshly placed rack, then drops one offline member from
// the set.
func (c *Cluster) drainRerepl(p *sim.Proc) {
	for c.rereplQ.Len() > 0 {
		path, _ := c.rereplQ.Pop(p)
		c.m.backlog.Add(-1)
		delete(c.queued, path)
		c.rereplicate(p, path)
	}
}

func (c *Cluster) rereplicate(p *sim.Proc, path string) {
	e := c.entries[path]
	if e == nil {
		return
	}
	var live, dead []int
	for _, m := range e.replicas {
		if c.racks[m].health != HealthOffline {
			live = append(live, m)
		} else {
			dead = append(dead, m)
		}
	}
	if len(live) >= c.replicas || len(live) == len(e.replicas) {
		// The rack came back (or nothing is actually missing): no copy needed.
		return
	}
	if len(live) == 0 {
		// Every replica is dark; nothing to copy from. A later Probe/requeue
		// retries when a rack returns.
		return
	}
	op := c.tracer.StartOp(p, "cluster.rereplicate", "scrub")
	op.Annotate("path", path)
	var err error
	defer func() { op.Finish(p, err) }()

	// Source: cheapest live replica; read admitted at scrub priority so the
	// copy never competes with interactive traffic on the donor rack.
	var buf [4]candidate
	cands := c.readPlan(buf[:0], e, path)
	var data []byte
	err = fmt.Errorf("%w for %s", ErrNoReplica, path)
	for _, cand := range cands {
		data, err = c.readVia(p, cand.ri, path, sched.Scrub)
		if err == nil {
			break
		}
	}
	if err != nil {
		return
	}
	// Target: a fresh Up rack outside the current set.
	limit := c.placeLimit()
	target := c.placer.place(path, 1, func(i int) bool {
		return c.racks[i].health <= limit && !slices.Contains(e.replicas, i)
	})
	if len(target) == 0 {
		err = fmt.Errorf("cluster: no eligible target rack for %s", path)
		return
	}
	// Re-replication is background repair traffic: it draws from the
	// archival admission reservation, never starving interactive ingest.
	err = c.routeTo(p, "rereplicate", target[0], func(r *Rack) error {
		return r.FS.WriteFileClass(p, path, data, writepath.Archival)
	})
	if err != nil {
		c.placer.unplace(target[0])
		return
	}
	// Swap one dead member out for the new copy.
	e.replicas = append(live, target[0])
	if len(dead) > 0 {
		c.placer.unplace(dead[0])
		for _, m := range dead[1:] {
			e.replicas = append(e.replicas, m)
		}
	}
	c.m.rereplDone.Add(1)
	c.m.imbalance.Set(int64(c.placer.imbalancePct()))
	live = nil
	for _, m := range e.replicas {
		if c.racks[m].health != HealthOffline {
			live = append(live, m)
		}
	}
	if len(live) < c.replicas {
		c.enqueue(path) // still short (multiple racks down): keep going
	}
}

// ---------------------------------------------------------------------------
// Status

// RackStatus is one rack's row in Status.
type RackStatus struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Health string `json:"health"`
	Load   int64  `json:"load"` // replicas placed by the placer
	Discs  int    `json:"discs"`
	Loads  int64  `json:"tray_loads"`
	Burns  int64  `json:"burn_tasks"`

	// Write-path admission state (per-rack token bucket).
	WriteInflight int64 `json:"write_inflight_bytes"`
	WriteShed     int64 `json:"write_shed"`
	WriteQueued   int   `json:"write_queued"`
}

// Status is the operational snapshot rosctl cluster status renders.
type Status struct {
	Replicas     int          `json:"replicas"`
	Entries      int          `json:"entries"`
	Backlog      int          `json:"rerepl_backlog"`
	ImbalancePct float64      `json:"imbalance_pct"`
	Racks        []RackStatus `json:"racks"`
}

// RackSnapshot returns rack ri's private metrics snapshot — the per-rack
// drill-down behind rosctl stats --rack. Zero snapshot when out of range.
func (c *Cluster) RackSnapshot(ri int) obs.Snapshot {
	if ri < 0 || ri >= len(c.racks) {
		return obs.Snapshot{}
	}
	return c.racks[ri].Reg.Snapshot()
}

// LabeledSnapshots returns each rack's snapshot tagged with its name, the
// input shape Prometheus exposition wants for rack="..." labels.
func (c *Cluster) LabeledSnapshots() []obs.LabeledSnapshot {
	out := make([]obs.LabeledSnapshot, len(c.racks))
	for i, r := range c.racks {
		out[i] = obs.LabeledSnapshot{Label: r.Name, Snap: r.Reg.Snapshot()}
	}
	return out
}

// Status assembles the operational snapshot.
func (c *Cluster) Status() Status {
	st := Status{
		Replicas:     c.replicas,
		Entries:      len(c.entries),
		Backlog:      c.rereplQ.Len(),
		ImbalancePct: c.placer.imbalancePct(),
	}
	for i, r := range c.racks {
		adm := r.FS.WritePath().Admission()
		st.Racks = append(st.Racks, RackStatus{
			Index:         i,
			Name:          r.Name,
			Health:        r.health.String(),
			Load:          c.placer.loads[i],
			Discs:         r.Lib.TotalDiscs(),
			Loads:         r.Reg.Counter("rack.loads").Value(),
			Burns:         r.Reg.Counter("olfs.burn_tasks").Value(),
			WriteInflight: adm.InflightBytes(),
			WriteShed:     adm.Sheds(),
			WriteQueued:   adm.QueueLen(),
		})
	}
	return st
}
