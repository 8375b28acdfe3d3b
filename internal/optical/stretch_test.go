package optical

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ros/internal/chunk"
	"ros/internal/faultinject"
	"ros/internal/sim"
)

// slowSource is a memSource whose lends take buffer-side virtual time.
type slowSource struct {
	memSource
	cost time.Duration
}

func (s slowSource) Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error) {
	p.Sleep(s.cost)
	return s.memSource.Lend(p, off, n, dst)
}

// burnPlan is what one drive of a stretch scenario does: spin up a disc at
// start and burn logical bytes (0: the whole disc) of which payload are
// lent, resuming in append mode after an interrupt if resume is set.
type burnPlan struct {
	start    time.Duration
	media    MediaType
	logical  int64
	payload  int
	lendCost time.Duration
	resume   bool
}

// burnAct is something done to the burns at a virtual time, from a process
// or from outside the simulation between RunUntil calls: interrupt a drive,
// arm a fault rule (the first one on a new fault plane) or, from outside,
// Close the Env.
type burnAct struct {
	at      time.Duration
	outside bool
	drive   int               // interrupt this drive, if rule and close are unset
	rule    *faultinject.Rule // arm this rule
	close   bool
}

type stretchScenario struct {
	seed  int64
	cap   float64
	plans []burnPlan
	acts  []burnAct
}

// newStretchScenario draws a scenario from seed. The times are drawn at
// nanosecond grain, so an act never lands on a quantum boundary.
func newStretchScenario(seed int64) stretchScenario {
	r := rand.New(rand.NewSource(seed))
	sc := stretchScenario{seed: seed}
	nd := 1 + r.Intn(3)
	switch r.Intn(3) {
	case 1: // cannot bind, even with every drive at top speed
		sc.cap = float64(nd) * maxSpeedX * BluRay1X * (1 + r.Float64())
	case 2: // binds once enough drives burn fast enough
		sc.cap = float64(nd) * (3 + 6*r.Float64()) * BluRay1X
	}
	ns := func(max time.Duration) time.Duration { return time.Duration(r.Int63n(int64(max))) }
	var horizon time.Duration
	for i := 0; i < nd; i++ {
		pl := burnPlan{media: Media25, resume: r.Intn(2) == 0}
		if r.Intn(5) == 0 {
			pl.media = Media100
		}
		if r.Intn(3) > 0 {
			pl.start = ns(60 * time.Second) // else all start together
		}
		if r.Intn(3) > 0 {
			pl.logical = 1e6 + r.Int63n(4e9)
		}
		size := pl.logical
		if size == 0 {
			size = pl.media.Capacity()
		}
		chunk := size / burnChunks
		pl.payload = r.Intn(int(min(4*chunk, 4<<20)) + 1)
		if r.Intn(3) == 0 {
			pl.payload = 0
		}
		if r.Intn(2) == 0 {
			pl.lendCost = ns(3 * time.Second)
		}
		sc.plans = append(sc.plans, pl)
		// A burn of size bytes runs at 4.4X-12X (4X-6X on 100 GB media).
		horizon = max(horizon, pl.start+time.Duration(float64(size)/(5*BluRay1X)*float64(time.Second)))
	}
	for n := r.Intn(4); n > 0; n-- {
		a := burnAct{at: ns(horizon), outside: r.Intn(2) == 0, drive: r.Intn(nd)}
		switch r.Intn(4) {
		case 0:
			rule := faultinject.Rule{Point: faultinject.PointOpticalBurn, Count: 1}
			if r.Intn(2) == 0 {
				rule.Match = fmt.Sprintf("d%d", r.Intn(nd))
			}
			switch r.Intn(3) {
			case 0:
				rule.After = r.Int63n(20)
			case 1:
				rule.Prob = 0.2
			}
			a.rule = &rule
		case 1: // a rule for another point: no burn looks at it
			a.rule = &faultinject.Rule{Point: faultinject.PointOpticalRead, Prob: 0.5}
		}
		sc.acts = append(sc.acts, a)
	}
	if r.Intn(4) == 0 {
		sc.acts = append(sc.acts, burnAct{at: ns(horizon), outside: true, close: true})
	}
	return sc
}

// burnOut is one Burn call's result; driveOut what a drive and its disc hold
// once the scenario is over.
type burnOut struct {
	Rep BurnReport
	Err string
	End time.Duration
}

type driveOut struct {
	Burns       []burnOut
	Written     int64
	Tracks      []Track
	BytesBurned int64
}

type stretchOutcome struct {
	Drives []driveOut
	Demand float64
	Now    time.Duration
}

// run plays the scenario. A no-op OnSample makes every burn step one
// quantum at a time; without one, decided quanta share a sleep.
func (sc stretchScenario) run(stepped bool) (stretchOutcome, sim.Stats) {
	env := sim.NewEnv()
	defer env.Close()
	var sample func(SpeedSample)
	if stepped {
		sample = func(SpeedSample) {}
	}
	sharer := NewSharer(env, sc.cap)
	out := stretchOutcome{Drives: make([]driveOut, len(sc.plans))}
	drives := make([]*Drive, len(sc.plans))
	discs := make([]*Disc, len(sc.plans))
	for i, pl := range sc.plans {
		dr := NewDrive(env, fmt.Sprintf("d%d", i), sharer)
		disc := NewDisc(fmt.Sprintf("disc%d", i), pl.media)
		drives[i], discs[i] = dr, disc
		data := patterned(pl.payload, byte(i))
		env.Go("burner", func(p *sim.Proc) {
			p.Sleep(pl.start)
			if err := dr.ArmLoad(disc); err != nil {
				panic(err)
			}
			opts := BurnOptions{LogicalBytes: pl.logical, OnSample: sample}
			for off := int64(0); ; {
				rep, err := dr.Burn(p, slowSource{memSource(data[off:]), pl.lendCost}, opts)
				res := burnOut{Rep: rep, End: p.Now()}
				if err != nil {
					res.Err = err.Error()
				}
				out.Drives[i].Burns = append(out.Drives[i].Burns, res)
				if !errors.Is(err, ErrBurnAborted) || !pl.resume || len(disc.Tracks()) == 0 {
					return
				}
				off += rep.PayloadBytes
				opts = BurnOptions{Append: true, OnSample: sample}
			}
		})
	}
	var plane *faultinject.Plane
	act := func(a burnAct) {
		switch {
		case a.rule != nil:
			if plane == nil {
				plane = faultinject.New(env, sc.seed)
			}
			plane.Arm(*a.rule)
		default:
			drives[a.drive].InterruptBurn()
		}
	}
	var outside []burnAct
	for _, a := range sc.acts {
		if a.outside {
			outside = append(outside, a)
			continue
		}
		env.Go("actor", func(p *sim.Proc) {
			p.Sleep(a.at)
			act(a)
		})
	}
	// Outside acts in time order; a Close ends the scenario.
	for len(outside) > 0 {
		next := 0
		for i, a := range outside {
			if a.at < outside[next].at {
				next = i
			}
		}
		a := outside[next]
		outside = append(outside[:next], outside[next+1:]...)
		env.RunUntil(a.at)
		if a.close {
			env.Close()
			break
		}
		act(a)
	}
	stats := env.Stats()
	if !env.Deadlocked() && env.Pending() > 0 {
		env.Run()
		stats = env.Stats()
	}
	for i, dr := range drives {
		d := &out.Drives[i]
		d.Written, d.Tracks, d.BytesBurned = discs[i].Written(), discs[i].Tracks(), dr.BytesBurned
	}
	out.Demand, out.Now = sharer.burnDemand, env.Now()
	return out, stats
}

// TestStretchedBurnMatchesStepped: a burn that sleeps once over the quanta
// whose timing is decided ends exactly as one that sleeps once per quantum
// — reports, errors, end times, disc watermarks and tracks, BytesBurned and
// the group's registered demand — with interrupts and fault rules cutting
// its stretches, from processes and from outside the simulation, and with
// Close unwinding it mid-stretch.
func TestStretchedBurnMatchesStepped(t *testing.T) {
	var stepEvents, stretchEvents int64
	for seed := int64(1); seed <= 300; seed++ {
		sc := newStretchScenario(seed)
		want, stepStats := sc.run(true)
		got, stretchStats := sc.run(false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %+v\nstretched:\n%+v\nstepped:\n%+v", seed, sc, got, want)
		}
		stepEvents += stepStats.Events
		stretchEvents += stretchStats.Events
	}
	t.Logf("%d events stepped, %d stretched", stepEvents, stretchEvents)
	if stretchEvents*2 > stepEvents {
		t.Errorf("stretched runs took %d events against %d stepped: the burns hardly stretch", stretchEvents, stepEvents)
	}
}

// TestCloseMidBurnKeepsTheQuantumUnderWay pins what a burn unwound by Close
// leaves, stepping or stretching alike: BytesBurned counts the quanta that
// ended, and the watermark also covers the quantum under way, which a burn
// takes when the quantum begins.
func TestCloseMidBurnKeepsTheQuantumUnderWay(t *testing.T) {
	for _, sample := range []func(SpeedSample){nil, func(SpeedSample) {}} {
		env := sim.NewEnv()
		dr := NewDrive(env, "d0", nil)
		disc := NewDisc("disc0", Media25)
		if err := dr.ArmLoad(disc); err != nil {
			t.Fatal(err)
		}
		env.Go("burner", func(p *sim.Proc) {
			dr.Burn(p, nil, BurnOptions{OnSample: sample})
			t.Error("Burn returned during Close")
		})
		env.RunUntil(100 * time.Second)
		env.Close()
		const chunk = 25e9 / burnChunks
		if b := dr.BytesBurned; b == 0 || b%chunk != 0 || disc.Written() != b+chunk {
			t.Errorf("stepping %v: BytesBurned %d, watermark %d; want a positive multiple of %d and one quantum more",
				sample != nil, b, disc.Written(), int64(chunk))
		}
	}
}
