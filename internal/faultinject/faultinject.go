// Package faultinject is the deterministic, seed-driven fault plane for the
// ROS simulation. A Plane registers itself on a sim.Env; lower layers consult
// it at named fault points (optical reads and burns, drive death, rack arm
// jams, tray load/unload, media latent sector errors and whole-disc aging)
// and inject the error a matching armed rule dictates.
//
// Determinism: the plane owns its own rand.Rand seeded from the campaign
// seed, separate from the environment's workload source, and the simulation
// is single-threaded, so the same seed and workload produce the identical
// fault schedule — every fired rule is recorded as an Event and as a
// fault.<point> counter, and the schedule can be printed for exact replay.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ros/internal/obs"
	"ros/internal/sim"
)

// Fault point catalogue: every named site at which the stack consults the
// plane. Rules arm against these names.
const (
	// PointOpticalRead fails a drive read after the mechanical/transfer time
	// was charged (detail: drive ID).
	PointOpticalRead = "optical.read"
	// PointOpticalBurn fails a burn at a chunk boundary (detail: drive ID).
	PointOpticalBurn = "optical.burn"
	// PointOpticalVerify fails a tray parity-verification pass
	// (detail: tray ID).
	PointOpticalVerify = "optical.verify"
	// PointDriveDead kills a drive permanently: the current operation fails
	// and every later one returns ErrDriveDead (detail: drive ID).
	PointDriveDead = "optical.drive.dead"
	// PointMediaLSE develops a latent sector error under the head: a sector
	// within the range swept by the current read is corrupted before the read
	// completes, placed deterministically per disc so lockstep multi-disc
	// reads develop errors at distinct sectors (detail: disc ID).
	PointMediaLSE = "media.lse"
	// PointMediaAged ages the loaded disc to whole-disc failure
	// (detail: disc ID).
	PointMediaAged = "media.aged"
	// PointArmJam jams the roller's robotic arm, aborting the load/unload
	// composite before any disc moves (detail: "r<roller>").
	PointArmJam = "rack.arm.jam"
	// PointTrayLoad / PointTrayUnload fail a tray load/unload composite at
	// its start (detail: tray ID).
	PointTrayLoad   = "rack.tray.load"
	PointTrayUnload = "rack.tray.unload"
	// PointRackOffline takes a whole federated rack off the cluster fabric:
	// the cluster routing layer consults it before every operation routed to
	// a rack and marks the rack Offline when it fires (detail: "rack<i>").
	PointRackOffline = "rack.offline"
	// PointRackDegraded marks a federated rack Degraded: it keeps serving,
	// but the cluster's replica selection deprioritizes it (detail: "rack<i>").
	PointRackDegraded = "rack.degraded"
)

// Points lists the full fault-point catalogue (for rosctl faults list).
var Points = []string{
	PointOpticalRead, PointOpticalBurn, PointOpticalVerify, PointDriveDead,
	PointMediaLSE, PointMediaAged, PointArmJam, PointTrayLoad, PointTrayUnload,
	PointRackOffline, PointRackDegraded,
}

// ErrInjected is the base error of every injected fault; layers wrap it into
// their own error types where type identity matters.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule arms one fault point. The trigger kinds compose:
//
//   - Prob > 0 fires with that probability per eligible evaluation;
//   - Nth > 1 fires on every Nth eligible evaluation;
//   - neither set fires on every eligible evaluation (a one-shot is
//     Count: 1);
//   - After skips the first After eligible evaluations;
//   - From/To bound eligibility to a virtual-time window (To 0 = open);
//   - Count caps total fires (0 = unlimited).
type Rule struct {
	Point string  // fault point name (required)
	Match string  // substring the detail must contain ("" matches all)
	Prob  float64 // per-evaluation fire probability
	Nth   int64   // fire every Nth eligible evaluation
	After int64   // eligible evaluations to skip before firing
	Count int64   // maximum fires; 0 = unlimited

	From time.Duration // window start (virtual time)
	To   time.Duration // window end; 0 = unbounded

	id    int
	evals int64
	fires int64
}

// RuleInfo is a read-only view of an armed rule for listing.
type RuleInfo struct {
	ID    int
	Spec  string
	Evals int64
	Fires int64
}

// Event records one injected fault, in fire order.
type Event struct {
	T      time.Duration // virtual time of injection
	Point  string
	Detail string
	Rule   int // id of the rule that fired
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v %-18s %-24s rule#%d", e.T, e.Point, e.Detail, e.Rule)
}

// Plane is the environment-wide fault plane. Create with New; the zero value
// is not usable.
type Plane struct {
	env    *sim.Env
	seed   int64
	rng    *rand.Rand // seeded on the first draw
	rules  []*Rule
	nextID int
	events []Event
	fires  int64
	obs    *obs.Registry
	// watchers are told of every rule armed (see Watch).
	watchers []func(Rule)
}

// maxEvents bounds the recorded schedule so endless campaigns don't grow
// without bound; the fire counters stay exact past the cap.
const maxEvents = 65536

// New creates a fault plane seeded with its own deterministic random source
// and registers it on env. At most one plane is active per environment; a
// second New replaces the first and keeps its watchers.
func New(env *sim.Env, seed int64) *Plane {
	pl := &Plane{env: env, seed: seed}
	if old := At(env); old != nil {
		pl.watchers = old.watchers
	}
	env.SetFaultPlane(pl)
	return pl
}

// Watch has fn called with every rule armed on env from now on, on this
// plane or on one a later New installs; it installs an empty plane (seed 0)
// if env has none. A layer that skips a fault point's evaluations while no
// armed rule matches them learns here when one starts to.
func Watch(env *sim.Env, fn func(Rule)) {
	pl := At(env)
	if pl == nil {
		pl = New(env, 0)
	}
	pl.watchers = append(pl.watchers, fn)
}

// Armed reports whether a rule armed on env's plane matches the fault point
// and detail: while none does, Check there is inert.
func Armed(env *sim.Env, point, detail string) bool {
	if pl := At(env); pl != nil {
		for _, r := range pl.rules {
			if r.Matches(point, detail) {
				return true
			}
		}
	}
	return false
}

// Matches reports whether the rule arms the fault point for detail.
func (r *Rule) Matches(point, detail string) bool {
	return r.Point == point && strings.Contains(detail, r.Match)
}

// At returns the plane registered on env, or nil.
func At(env *sim.Env) *Plane {
	pl, _ := env.FaultPlane().(*Plane)
	return pl
}

// AttachObs connects the plane to a metrics registry: every injection bumps
// fault.injected and a per-point fault.<point> counter.
func (pl *Plane) AttachObs(r *obs.Registry) {
	pl.obs = r
	r.Counter("fault.injected")
}

// Seed returns the seed the plane's random source was created with.
func (pl *Plane) Seed() int64 { return pl.seed }

// Arm adds a rule and returns its id. Rules are evaluated in arm order; the
// first rule that fires wins an evaluation.
func (pl *Plane) Arm(r Rule) int {
	pl.nextID++
	r.id = pl.nextID
	pl.rules = append(pl.rules, &r)
	for _, fn := range pl.watchers {
		fn(r)
	}
	return r.id
}

// ArmSpec parses a rule spec string (see ParseSpec) and arms every rule in
// it, returning their ids.
func (pl *Plane) ArmSpec(spec string) ([]int, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(rules))
	for _, r := range rules {
		ids = append(ids, pl.Arm(r))
	}
	return ids, nil
}

// Clear disarms every rule. The recorded schedule and counters are kept.
func (pl *Plane) Clear() { pl.rules = nil }

// Rules lists the armed rules in evaluation order.
func (pl *Plane) Rules() []RuleInfo {
	out := make([]RuleInfo, 0, len(pl.rules))
	for _, r := range pl.rules {
		out = append(out, RuleInfo{ID: r.id, Spec: r.Spec(), Evals: r.evals, Fires: r.fires})
	}
	return out
}

// Events returns the recorded fault schedule (fire order).
func (pl *Plane) Events() []Event { return pl.events }

// Fires returns the total number of injected faults.
func (pl *Plane) Fires() int64 { return pl.fires }

// ScheduleString formats the recorded fault schedule for replay diagnostics.
func (pl *Plane) ScheduleString() string {
	if len(pl.events) == 0 {
		return "  (no faults injected)\n"
	}
	var b strings.Builder
	for _, e := range pl.events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Check consults the plane registered on p's environment at the named fault
// point. It returns a non-nil error (wrapping ErrInjected, or the matched
// rule's semantics) when a fault must be injected, nil otherwise. With no
// plane or no armed rules the call is inert, so production paths can consult
// fault points unconditionally.
func Check(p *sim.Proc, point, detail string) error {
	pl := At(p.Env())
	if pl == nil || len(pl.rules) == 0 {
		return nil
	}
	return pl.check(p, point, detail)
}

func (pl *Plane) check(p *sim.Proc, point, detail string) error {
	now := pl.env.Now()
	for _, r := range pl.rules {
		if !r.Matches(point, detail) {
			continue
		}
		if now < r.From || (r.To > 0 && now > r.To) {
			continue
		}
		if r.Count > 0 && r.fires >= r.Count {
			continue
		}
		r.evals++
		if r.evals <= r.After {
			continue
		}
		fire := true
		if r.Prob > 0 {
			if pl.rng == nil {
				pl.rng = rand.New(rand.NewSource(pl.seed))
			}
			fire = pl.rng.Float64() < r.Prob
		}
		if fire && r.Nth > 1 {
			fire = (r.evals-r.After)%r.Nth == 0
		}
		if !fire {
			continue
		}
		r.fires++
		return pl.fired(p, r, point, detail)
	}
	return nil
}

// fired records the injection (schedule event, counters, trace span tag) and
// builds the injected error.
func (pl *Plane) fired(p *sim.Proc, r *Rule, point, detail string) error {
	pl.fires++
	if len(pl.events) < maxEvents {
		pl.events = append(pl.events, Event{T: pl.env.Now(), Point: point, Detail: detail, Rule: r.id})
	}
	if pl.obs != nil {
		pl.obs.Counter("fault.injected").Add(1)
		pl.obs.Counter("fault." + point).Add(1)
	}
	// Tag the active request trace (if any) with a zero-duration fault span
	// so injected faults are diagnosable from the trace journal.
	sp := obs.StartChild(p, "fault."+point)
	sp.Annotate("detail", detail)
	sp.Annotate("rule", r.Spec())
	sp.Fail(p, ErrInjected)
	pl.env.Emit("fault.inject", p.Name(), func() string { return point + " " + detail })
	return fmt.Errorf("%w: %s@%s (rule #%d)", ErrInjected, point, detail, r.id)
}
