// Package rack models the ROS 42U mechanical subsystem (§3.1-3.2): one or
// two rotatable rollers (85 layers x 6 lotus-arranged slots x 12-disc trays
// = 6120 discs each), a vertical-only robotic arm per roller, and 1-4 groups
// of 12 optical drives, with the load/unload choreography driven through the
// PLC instruction set.
//
// The composite operations reproduce Table 3 of the paper with the default
// PLC timing: loading a disc array takes 68.7 s from the uppermost layer and
// 73.2 s from the lowest; unloading takes 81.7 s / 86.5 s.
package rack

import (
	"errors"
	"fmt"
	"time"

	"ros/internal/faultinject"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/plc"
	"ros/internal/sim"
)

// Geometry constants (§3.2).
const (
	LayersPerRoller = 85
	SlotsPerLayer   = 6
	DiscsPerTray    = 12
	TraysPerRoller  = LayersPerRoller * SlotsPerLayer // 510
	DiscsPerRoller  = TraysPerRoller * DiscsPerTray   // 6120
	DrivesPerGroup  = 12
)

// Rack errors.
var (
	ErrBadAddress    = errors.New("rack: address out of range")
	ErrTrayEmpty     = errors.New("rack: tray holds no discs")
	ErrTrayOccupied  = errors.New("rack: tray already holds discs")
	ErrGroupBusy     = errors.New("rack: drive group not empty")
	ErrGroupEmpty    = errors.New("rack: drive group holds no array")
	ErrNoSuchGroup   = errors.New("rack: no such drive group")
	ErrArmContention = errors.New("rack: roller mechanism busy")
)

// TrayID addresses one tray: (roller, layer, slot). Layer 0 is the lowest,
// LayersPerRoller-1 the uppermost.
type TrayID struct {
	Roller int
	Layer  int
	Slot   int
}

func (id TrayID) String() string {
	return fmt.Sprintf("r%d/L%02d/S%d", id.Roller, id.Layer, id.Slot)
}

// ParseTrayID is the inverse of TrayID.String: it reads "r<roller>/L<layer>/
// S<slot>" with non-negative coordinates and nothing after them.
func ParseTrayID(s string) (TrayID, error) {
	var id TrayID
	var rest string
	n, _ := fmt.Sscanf(s, "r%d/L%d/S%d%s", &id.Roller, &id.Layer, &id.Slot, &rest)
	if n != 3 || id.Roller < 0 || id.Layer < 0 || id.Slot < 0 {
		return TrayID{}, fmt.Errorf("rack: bad tray id %q", s)
	}
	return id, nil
}

// Tray holds up to 12 discs (a disc array).
type Tray struct {
	ID    TrayID
	Discs []*optical.Disc // nil-free; len <= DiscsPerTray
}

// Full reports whether the tray holds a complete 12-disc array.
func (t *Tray) Full() bool { return len(t.Discs) == DiscsPerTray }

// Empty reports whether the tray holds no discs.
func (t *Tray) Empty() bool { return len(t.Discs) == 0 }

// Roller is one rotatable cylinder of trays plus its robotic arm and PLC
// channel.
type Roller struct {
	Index int
	Ctl   *plc.Controller
	trays [LayersPerRoller][SlotsPerLayer]*Tray
	// mech serializes composite load/unload choreographies: there is one
	// arm, so one array movement at a time per roller.
	mech *sim.Resource
}

// Tray returns the tray at (layer, slot).
func (r *Roller) Tray(layer, slot int) *Tray { return r.trays[layer][slot] }

// DriveGroup is a set of 12 drives that load/unload together as one disc
// array (§3.2).
type DriveGroup struct {
	Index  int
	Drives []*optical.Drive
	Sharer *optical.Sharer
	// Source is the tray the currently-loaded array came from (nil if the
	// group is empty).
	Source *TrayID
	// busy serializes whole-group operations (load/unload).
	busy *sim.Resource
}

// Loaded reports whether the group currently holds discs.
func (g *DriveGroup) Loaded() bool { return g.Source != nil }

// AnyBurning reports whether any drive in the group is burning.
func (g *DriveGroup) AnyBurning() bool {
	for _, d := range g.Drives {
		if d.State() == optical.StateBurning {
			return true
		}
	}
	return false
}

// Config sizes a library.
type Config struct {
	Rollers     int               // 1 or 2
	DriveGroups int               // 1-4 groups of 12
	Media       optical.MediaType // disc generation to populate with
	BurnCap     float64           // aggregate burn throughput cap per group (bytes/s); 0 = uncapped
	PopulateAll bool              // fill every tray with blank discs
	Overlap     bool              // overlap roller ops with arm ops during unload (§3.2 optimization, ~10 s saving)
	Obs         *obs.Registry     // metrics registry; nil -> a fresh one is created
}

// PrototypeConfig is the paper's evaluation prototype (§5.1): two rollers of
// 6120 100 GB discs each and 24 drives (2 groups).
func PrototypeConfig() Config {
	return Config{
		Rollers:     2,
		DriveGroups: 2,
		Media:       optical.Media100,
		PopulateAll: true,
	}
}

// Library is the assembled mechanical+drive subsystem.
type Library struct {
	env     *sim.Env
	cfg     Config
	timing  plc.Timing
	obs     *obs.Registry
	Rollers []*Roller
	Groups  []*DriveGroup

	loads   *obs.Counter // rack.loads
	unloads *obs.Counter // rack.unloads
}

// New assembles a library. With cfg.PopulateAll, every tray is filled with
// blank discs of cfg.Media.
func New(env *sim.Env, cfg Config) (*Library, error) {
	if cfg.Rollers < 1 || cfg.Rollers > 2 {
		return nil, fmt.Errorf("rack: rollers must be 1 or 2, got %d", cfg.Rollers)
	}
	if cfg.DriveGroups < 1 || cfg.DriveGroups > 4 {
		return nil, fmt.Errorf("rack: drive groups must be 1-4, got %d", cfg.DriveGroups)
	}
	timing := plc.DefaultTiming()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New(env)
	}
	lib := &Library{env: env, cfg: cfg, timing: timing, obs: reg,
		loads: reg.Counter("rack.loads"), unloads: reg.Counter("rack.unloads")}
	for ri := 0; ri < cfg.Rollers; ri++ {
		r := &Roller{
			Index: ri,
			Ctl:   plc.NewController(env, timing, LayersPerRoller, SlotsPerLayer),
			mech:  sim.NewResource(env, 1),
		}
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				t := &Tray{ID: TrayID{Roller: ri, Layer: l, Slot: s}}
				if cfg.PopulateAll {
					for d := 0; d < DiscsPerTray; d++ {
						t.Discs = append(t.Discs, optical.NewDisc(
							fmt.Sprintf("r%d-L%02d-S%d-D%02d", ri, l, s, d), cfg.Media))
					}
				}
				r.trays[l][s] = t
			}
		}
		lib.Rollers = append(lib.Rollers, r)
	}
	for gi := 0; gi < cfg.DriveGroups; gi++ {
		sharer := optical.NewSharer(env, cfg.BurnCap)
		g := &DriveGroup{Index: gi, Sharer: sharer, busy: sim.NewResource(env, 1)}
		for d := 0; d < DrivesPerGroup; d++ {
			dr := optical.NewDrive(env, fmt.Sprintf("g%d-d%02d", gi, d), sharer)
			dr.AttachObs(reg)
			g.Drives = append(g.Drives, dr)
		}
		lib.Groups = append(lib.Groups, g)
	}
	return lib, nil
}

// Config returns the library configuration.
func (lib *Library) Config() Config { return lib.cfg }

// Obs returns the metrics registry shared by the library and its drives.
func (lib *Library) Obs() *obs.Registry { return lib.obs }

// Tray returns the tray at the given address.
func (lib *Library) Tray(id TrayID) (*Tray, error) {
	if id.Roller < 0 || id.Roller >= len(lib.Rollers) ||
		id.Layer < 0 || id.Layer >= LayersPerRoller ||
		id.Slot < 0 || id.Slot >= SlotsPerLayer {
		return nil, fmt.Errorf("%w: %v", ErrBadAddress, id)
	}
	return lib.Rollers[id.Roller].trays[id.Layer][id.Slot], nil
}

// Disc returns the disc at position pos of tray id's array wherever the
// array is: loaded in a drive group or home in its tray. It returns nil if
// there is no such disc (a bad address or position, an empty tray, or an
// array in transit).
func (lib *Library) Disc(id TrayID, pos int) *optical.Disc {
	for _, g := range lib.Groups {
		if g.Source != nil && *g.Source == id {
			if pos < 0 || pos >= len(g.Drives) {
				return nil
			}
			return g.Drives[pos].Disc()
		}
	}
	tray, err := lib.Tray(id)
	if err != nil || pos < 0 || pos >= len(tray.Discs) {
		return nil
	}
	return tray.Discs[pos]
}

// Group returns drive group gi.
func (lib *Library) Group(gi int) (*DriveGroup, error) {
	if gi < 0 || gi >= len(lib.Groups) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchGroup, gi)
	}
	return lib.Groups[gi], nil
}

// ArmLayer returns roller ri's current arm layer as reported by the PLC
// sensors. The "atop drives" rest position maps to the uppermost layer, so
// the result is always a valid tray layer for distance arithmetic.
func (lib *Library) ArmLayer(ri int) int {
	if ri < 0 || ri >= len(lib.Rollers) {
		return 0
	}
	l := lib.Rollers[ri].Ctl.Sensors().ArmLayer
	if l >= LayersPerRoller {
		l = LayersPerRoller - 1
	}
	if l < 0 {
		l = 0
	}
	return l
}

// TravelCost estimates the empty-arm time to move from layer `from` to tray
// id's layer under the library's PLC timing: the per-move positioning base
// plus the full-stroke time scaled by the layer distance. Schedulers use it
// to order pending fetches by mechanical cost.
func (lib *Library) TravelCost(from int, id TrayID) time.Duration {
	d := from - id.Layer
	if d < 0 {
		d = -d
	}
	return lib.timing.ArmBaseEmpty +
		time.Duration(d)*lib.timing.ArmFullStroke/time.Duration(LayersPerRoller-1)
}

// ArmTime returns the total virtual time the arm motors have spent moving,
// summed over rollers — the mechanical-travel figure of merit for
// scheduling experiments.
func (lib *Library) ArmTime() time.Duration {
	var t time.Duration
	for _, r := range lib.Rollers {
		t += r.Ctl.ArmTime
	}
	return t
}

// TotalDiscs returns the number of discs currently resident in trays.
func (lib *Library) TotalDiscs() int {
	n := 0
	for _, r := range lib.Rollers {
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				n += len(r.trays[l][s].Discs)
			}
		}
	}
	return n
}

// exec runs one PLC instruction, failing the whole composite on error. Arm
// motions (the dominant mechanical cost, Table 3) are measured as
// rack.arm.move.latency spans; failed motions are cancelled rather than
// observed so errors don't skew the travel distribution.
func (lib *Library) exec(p *sim.Proc, ctl *plc.Controller, cmd plc.Command) error {
	var sp *obs.Span
	var tsp *obs.TraceSpan
	if cmd.Op == plc.OpArm || cmd.Op == plc.OpArmTop {
		sp = lib.obs.StartSpan("rack.arm.move.latency")
		tsp = obs.StartChild(p, "rack.arm_move")
		if cmd.Op == plc.OpArm && len(cmd.Args) > 0 {
			tsp.AnnotateInt("layer", int64(cmd.Args[0]))
		} else if cmd.Op == plc.OpArmTop {
			tsp.Annotate("layer", "top")
		}
	}
	_, err := ctl.Exec(p, cmd)
	if err != nil {
		sp.Cancel()
		tsp.Fail(p, err)
		return err
	}
	sp.End()
	tsp.End(p)
	return nil
}

// LoadArray moves the disc array in tray `id` into drive group gi:
//
//	ROTATE slot -> ARM layer -> FANOUT -> FETCH -> (FANIN || ARMTOP+SEPARATE)
//
// The discs are inserted into the drives cold (they spin up on first
// access). Fails if the group already holds discs or the tray is empty.
func (lib *Library) LoadArray(p *sim.Proc, id TrayID, gi int) (err error) {
	tray, err := lib.Tray(id)
	if err != nil {
		return err
	}
	g, err := lib.Group(gi)
	if err != nil {
		return err
	}
	r := lib.Rollers[id.Roller]
	sp := lib.obs.StartSpan("rack.load.latency")
	tsp := obs.StartChild(p, "rack.tray_load")
	tsp.Annotate("tray", id.String())
	tsp.AnnotateInt("group", int64(gi))
	defer func() {
		if err != nil {
			sp.Cancel() // failed composites don't pollute the latency distribution
			tsp.Fail(p, err)
			return
		}
		sp.End()
		tsp.End(p)
		lib.env.Emit(sim.KindRackLoad, p.Name(), id.String())
	}()

	g.busy.Acquire(p)
	defer g.busy.Release()
	if g.Loaded() {
		return fmt.Errorf("%w: group %d holds array from %v", ErrGroupBusy, gi, *g.Source)
	}
	r.mech.Acquire(p)
	defer r.mech.Release()
	if tray.Empty() {
		return fmt.Errorf("%w: %v", ErrTrayEmpty, id)
	}

	// Fault points fire at composite entry, before any disc moves: a jam or
	// load failure aborts with tray and drives in their pre-call state.
	if err := faultinject.Check(p, faultinject.PointArmJam, fmt.Sprintf("r%d", id.Roller)); err != nil {
		return fmt.Errorf("rack: arm jam: %w", err)
	}
	if err := faultinject.Check(p, faultinject.PointTrayLoad, id.String()); err != nil {
		return fmt.Errorf("rack: tray load: %w", err)
	}

	ctl := r.Ctl
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpRotate, Args: []int{id.Slot}}); err != nil {
		return err
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpArm, Args: []int{id.Layer}}); err != nil {
		return err
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpFanOut}); err != nil {
		return err
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpFetch}); err != nil {
		return err
	}
	// The opened tray fans back while the arm lifts the array (§3.2).
	fanin := sim.NewCompletion[struct{}](lib.env)
	lib.env.Go("fanin", func(fp *sim.Proc) {
		fanin.Resolve(struct{}{}, lib.exec(fp, ctl, plc.Command{Op: plc.OpFanIn}))
	})
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpArmTop}); err != nil {
		return err
	}
	discs := tray.Discs
	tray.Discs = nil
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpSeparate, Args: []int{len(discs)}}); err != nil {
		return err
	}
	for i, d := range discs {
		if err := g.Drives[i].ArmLoad(d); err != nil {
			return err
		}
	}
	if _, err := fanin.Wait(p); err != nil {
		return err
	}
	src := id
	g.Source = &src
	lib.loads.Add(1)
	return nil
}

// UnloadArray collects the array from drive group gi back into the tray it
// came from (or `into`, if non-nil):
//
//	COLLECT -> ROTATE slot -> FANOUT -> ARM layer -> PLACE -> FANIN
//
// With cfg.Overlap, the roller rotation and tray fan-out run concurrently
// with the COLLECT (the §3.2 "precisely scheduling movements in parallel"
// optimization, saving several seconds).
func (lib *Library) UnloadArray(p *sim.Proc, gi int, into *TrayID) (err error) {
	g, err := lib.Group(gi)
	if err != nil {
		return err
	}
	g.busy.Acquire(p)
	defer g.busy.Release()
	if !g.Loaded() {
		return fmt.Errorf("%w: group %d", ErrGroupEmpty, gi)
	}
	dest := *g.Source
	if into != nil {
		dest = *into
	}
	tray, err := lib.Tray(dest)
	if err != nil {
		return err
	}
	if !tray.Empty() {
		return fmt.Errorf("%w: %v", ErrTrayOccupied, dest)
	}
	r := lib.Rollers[dest.Roller]
	sp := lib.obs.StartSpan("rack.unload.latency")
	tsp := obs.StartChild(p, "rack.tray_unload")
	tsp.Annotate("tray", dest.String())
	tsp.AnnotateInt("group", int64(gi))
	defer func() {
		if err != nil {
			sp.Cancel()
			tsp.Fail(p, err)
			return
		}
		sp.End()
		tsp.End(p)
		lib.env.Emit(sim.KindRackUnload, p.Name(), dest.String())
	}()
	r.mech.Acquire(p)
	defer r.mech.Release()
	ctl := r.Ctl

	// Fault points fire at composite entry: injecting later (after ArmEject)
	// would model discs vanishing mid-transfer, which real jams don't do.
	if err := faultinject.Check(p, faultinject.PointArmJam, fmt.Sprintf("r%d", dest.Roller)); err != nil {
		return fmt.Errorf("rack: arm jam: %w", err)
	}
	if err := faultinject.Check(p, faultinject.PointTrayUnload, dest.String()); err != nil {
		return fmt.Errorf("rack: tray unload: %w", err)
	}

	n := 0
	for _, d := range g.Drives {
		if d.Loaded() {
			n++
		}
	}

	prep := func(fp *sim.Proc) error {
		if err := lib.exec(fp, ctl, plc.Command{Op: plc.OpRotate, Args: []int{dest.Slot}}); err != nil {
			return err
		}
		return lib.exec(fp, ctl, plc.Command{Op: plc.OpFanOut})
	}
	var prepDone *sim.Completion[struct{}]
	if lib.cfg.Overlap {
		prepDone = sim.NewCompletion[struct{}](lib.env)
		lib.env.Go("unload-prep", func(fp *sim.Proc) {
			prepDone.Resolve(struct{}{}, prep(fp))
		})
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpCollect, Args: []int{n}}); err != nil {
		return err
	}
	var discs []*optical.Disc
	for _, d := range g.Drives {
		if !d.Loaded() {
			continue
		}
		disc, err := d.ArmEject()
		if err != nil {
			return err
		}
		discs = append(discs, disc)
	}
	if lib.cfg.Overlap {
		if _, err := prepDone.Wait(p); err != nil {
			return err
		}
	} else {
		if err := prep(p); err != nil {
			return err
		}
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpArm, Args: []int{dest.Layer}}); err != nil {
		return err
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpPlace}); err != nil {
		return err
	}
	if err := lib.exec(p, ctl, plc.Command{Op: plc.OpFanIn}); err != nil {
		return err
	}
	tray.Discs = discs
	g.Source = nil
	lib.unloads.Add(1)
	// The arm returns to its start position atop the drives overlapped with
	// whatever follows (§5.2: the arm's start position is the uppermost
	// layer). Start claims the arm motor before it returns, so a COLLECT
	// issued next, even by an unload that follows this one without yielding,
	// queues behind the return rather than failing its position precondition.
	ctl.Start("arm-return", plc.Command{Op: plc.OpArmTop})
	return nil
}

// SwapArray unloads the current array from group gi (back to its source
// tray) and loads the array from tray id — the common fetch-task composite.
func (lib *Library) SwapArray(p *sim.Proc, gi int, id TrayID) error {
	g, err := lib.Group(gi)
	if err != nil {
		return err
	}
	if g.Loaded() {
		if err := lib.UnloadArray(p, gi, nil); err != nil {
			return err
		}
	}
	return lib.LoadArray(p, id, gi)
}
