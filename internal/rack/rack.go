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
	"strconv"
	"time"

	"ros/internal/faultinject"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/plc"
	"ros/internal/sim"
)

// Geometry constants (§3.2).
const (
	MaxRollers      = 2 // rollers a library may have
	LayersPerRoller = 85
	SlotsPerLayer   = 6
	DiscsPerTray    = plc.ArrayDiscs
	TraysPerRoller  = LayersPerRoller * SlotsPerLayer // 510
	DiscsPerRoller  = TraysPerRoller * DiscsPerTray   // 6120
	MaxTrays        = MaxRollers * TraysPerRoller     // tray numbers a library may use
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

// Number returns the tray's number, (Roller·LayersPerRoller + Layer)·
// SlotsPerLayer + Slot, in [0, MaxTrays), or -1 when no library has the tray.
// An integer key also keeps the runtime's variable-length struct hash out of
// the binary.
func (id TrayID) Number() int {
	if id.Roller < 0 || id.Roller >= MaxRollers || id.Layer < 0 || id.Layer >= LayersPerRoller ||
		id.Slot < 0 || id.Slot >= SlotsPerLayer {
		return -1
	}
	return (id.Roller*LayersPerRoller+id.Layer)*SlotsPerLayer + id.Slot
}

// rollerName is the arm-jam fault point's detail for the tray's roller.
func (id TrayID) rollerName() string { return "r" + strconv.Itoa(id.Roller) }

// pad2 appends v >= 0 as %02d formats it.
func pad2(b []byte, v int) []byte {
	return strconv.AppendInt(strconv.AppendInt(b, int64(v/10), 10), int64(v%10), 10)
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

// Tray holds up to 12 discs (a disc array). A tray starts blank: it holds a
// factory-fresh array of the library's media whose discs Library.Tray builds
// on first touch, so a library costs what it has touched.
type Tray struct {
	ID    TrayID
	Discs []*optical.Disc // nil-free; len <= DiscsPerTray
	built bool            // ID and Discs are set; until then the tray is blank
}

// held returns the number of discs in the tray, a blank one's included.
func (t *Tray) held() int {
	if !t.built {
		return DiscsPerTray
	}
	return len(t.Discs)
}

// Full reports whether the tray holds a complete 12-disc array.
func (t *Tray) Full() bool { return t.held() == DiscsPerTray }

// Empty reports whether the tray holds no discs.
func (t *Tray) Empty() bool { return t.held() == 0 }

// Roller is one rotatable cylinder of trays plus its robotic arm and PLC
// channel.
type Roller struct {
	Index int
	Ctl   *plc.Controller
	trays [LayersPerRoller][SlotsPerLayer]Tray
	// mech serializes composite load/unload choreographies: there is one
	// arm, so one array movement at a time per roller.
	mech *sim.Resource
}

// DriveGroup is a set of 12 drives that load/unload together as one disc
// array (§3.2).
type DriveGroup struct {
	Index  int
	Drives []*optical.Drive
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
	// The latency histograms, each bound on its first observation so the
	// name registers exactly when something records into it.
	armMove, loadLat, unloadLat *obs.Histogram
}

// New assembles a library with every tray holding a blank array of
// cfg.Media; a tray's discs are built when Tray first reaches them.
func New(env *sim.Env, cfg Config) (*Library, error) {
	if cfg.Rollers < 1 || cfg.Rollers > MaxRollers {
		return nil, fmt.Errorf("rack: rollers must be 1-%d, got %d", MaxRollers, cfg.Rollers)
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
		lib.Rollers = append(lib.Rollers, &Roller{
			Index: ri,
			Ctl:   plc.NewController(env, timing, LayersPerRoller, SlotsPerLayer),
			mech:  sim.NewResource(env, 1),
		})
	}
	for gi := 0; gi < cfg.DriveGroups; gi++ {
		sharer := optical.NewSharer(env, cfg.BurnCap)
		g := &DriveGroup{Index: gi, busy: sim.NewResource(env, 1)}
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
	t := &lib.Rollers[id.Roller].trays[id.Layer][id.Slot]
	if !t.built {
		lib.build(t, id)
	}
	return t, nil
}

// build gives blank tray t its address and its array of cfg.Media: disc d is
// named "r%d-L%02d-S%d-D%02d" of the roller, layer, slot and d. The twelve
// names share one string and the discs one slab (optical.NewDiscs).
func (lib *Library) build(t *Tray, id TrayID) {
	var buf [(DiscsPerTray + 1) * 16]byte
	prefix := append(strconv.AppendInt(append(buf[:0], 'r'), int64(id.Roller), 10), "-L"...)
	prefix = append(strconv.AppendInt(append(pad2(prefix, id.Layer), "-S"...), int64(id.Slot), 10), "-D"...)
	b := prefix
	for d := 0; d < DiscsPerTray; d++ {
		b = pad2(append(b, prefix...), d)
	}
	names, n := string(b[len(prefix):]), len(prefix)+2
	var ids [DiscsPerTray]string
	for d := range ids {
		ids[d] = names[d*n : (d+1)*n]
	}
	t.ID, t.Discs, t.built = id, optical.NewDiscs(ids[:], lib.cfg.Media), true
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
		for l := range r.trays {
			for s := range r.trays[l] {
				n += r.trays[l][s].held()
			}
		}
	}
	return n
}

// exec runs one PLC instruction, failing the whole composite on error. Arm
// motions (the dominant mechanical cost, Table 3) are observed into
// rack.arm.move.latency; failed motions record nothing so errors don't skew
// the travel distribution.
func (lib *Library) exec(p *sim.Proc, ctl *plc.Controller, cmd plc.Command) error {
	var h *obs.Histogram
	var tsp *obs.TraceSpan
	start := p.Now()
	if cmd.Op == plc.OpArm || cmd.Op == plc.OpArmTop {
		h = lib.hist(&lib.armMove, "rack.arm.move.latency")
		tsp = obs.StartChild(p, "rack.arm_move")
		if cmd.Op == plc.OpArm && len(cmd.Args) > 0 {
			tsp.AnnotateInt("layer", int64(cmd.Args[0]))
		} else if cmd.Op == plc.OpArmTop {
			tsp.Annotate("layer", "top")
		}
	}
	_, err := ctl.Exec(p, cmd)
	if err != nil {
		tsp.Fail(p, err)
		return err
	}
	h.ObserveSince(start, p.Now())
	tsp.End(p)
	return nil
}

// composite is one load or unload choreography's latency histogram, start
// time and trace span; end closes them with the choreography's outcome.
type composite struct {
	h     *obs.Histogram
	start time.Duration
	tsp   *obs.TraceSpan
	kind  string // sim.KindRackLoad or sim.KindRackUnload, emitted on success
	tray  TrayID
}

// hist returns *h, binding it to the registry's histogram name first if it
// is unbound.
func (lib *Library) hist(h **obs.Histogram, name string) *obs.Histogram {
	if *h == nil {
		*h = lib.obs.Histogram(name)
	}
	return *h
}

func (lib *Library) startLoad(p *sim.Proc, tray TrayID, gi int) composite {
	return lib.startComposite(p, lib.hist(&lib.loadLat, "rack.load.latency"), "rack.tray_load", sim.KindRackLoad, tray, gi)
}

func (lib *Library) startUnload(p *sim.Proc, tray TrayID, gi int) composite {
	return lib.startComposite(p, lib.hist(&lib.unloadLat, "rack.unload.latency"), "rack.tray_unload", sim.KindRackUnload, tray, gi)
}

func (lib *Library) startComposite(p *sim.Proc, h *obs.Histogram, trace, kind string, tray TrayID, gi int) composite {
	c := composite{h: h, start: p.Now(), tsp: obs.StartChild(p, trace), kind: kind, tray: tray}
	if c.tsp != nil {
		c.tsp.Annotate("tray", tray.String())
	}
	c.tsp.AnnotateInt("group", int64(gi))
	return c
}

func (lib *Library) end(p *sim.Proc, c composite, err error) {
	if err != nil {
		// No sample: failed composites don't pollute the latency distribution.
		c.tsp.Fail(p, err)
		return
	}
	c.h.ObserveSince(c.start, p.Now())
	c.tsp.End(p)
	lib.env.Emit(c.kind, p.Name(), c.tray.String)
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
	c := lib.startLoad(p, id, gi)
	defer func() { lib.end(p, c, err) }()
	g.busy.Acquire(p)
	defer g.busy.Release()
	if g.Loaded() {
		return fmt.Errorf("%w: group %d holds array from %v", ErrGroupBusy, gi, *g.Source)
	}
	r := lib.Rollers[id.Roller]
	r.mech.Acquire(p)
	defer r.mech.Release()
	return lib.load(p, tray, g)
}

// load is LoadArray's choreography, run with g.busy and the tray's roller arm
// held.
func (lib *Library) load(p *sim.Proc, tray *Tray, g *DriveGroup) error {
	id := tray.ID
	if tray.Empty() {
		return fmt.Errorf("%w: %v", ErrTrayEmpty, id)
	}

	// Fault points fire at composite entry, before any disc moves: a jam or
	// load failure aborts with tray and drives in their pre-call state.
	if err := faultinject.Check(p, faultinject.PointArmJam, id.rollerName); err != nil {
		return fmt.Errorf("rack: arm jam: %w", err)
	}
	if err := faultinject.Check(p, faultinject.PointTrayLoad, id.String); err != nil {
		return fmt.Errorf("rack: tray load: %w", err)
	}

	ctl := lib.Rollers[id.Roller].Ctl
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
	tray, err := lib.unloadTarget(g, into)
	if err != nil {
		return err
	}
	c := lib.startUnload(p, tray.ID, gi)
	defer func() { lib.end(p, c, err) }()
	r := lib.Rollers[tray.ID.Roller]
	r.mech.Acquire(p)
	defer r.mech.Release()
	return lib.unload(p, g, tray)
}

// unloadTarget returns the empty tray group g's array goes back to: its
// source tray, or `into` if non-nil.
func (lib *Library) unloadTarget(g *DriveGroup, into *TrayID) (*Tray, error) {
	if !g.Loaded() {
		return nil, fmt.Errorf("%w: group %d", ErrGroupEmpty, g.Index)
	}
	dest := *g.Source
	if into != nil {
		dest = *into
	}
	tray, err := lib.Tray(dest)
	if err != nil {
		return nil, err
	}
	if !tray.Empty() {
		return nil, fmt.Errorf("%w: %v", ErrTrayOccupied, dest)
	}
	return tray, nil
}

// unload is UnloadArray's choreography into tray, run with g.busy and the
// tray's roller arm held.
func (lib *Library) unload(p *sim.Proc, g *DriveGroup, tray *Tray) error {
	dest := tray.ID
	ctl := lib.Rollers[dest.Roller].Ctl

	// Fault points fire at composite entry: injecting later (after ArmEject)
	// would model discs vanishing mid-transfer, which real jams don't do.
	if err := faultinject.Check(p, faultinject.PointArmJam, dest.rollerName); err != nil {
		return fmt.Errorf("rack: arm jam: %w", err)
	}
	if err := faultinject.Check(p, faultinject.PointTrayUnload, dest.String); err != nil {
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

// SwapArray unloads group gi's array back to its source tray and loads the
// array from tray id in its place (Table 1 row 5, the fetch and burn eviction
// composite). It holds the group throughout and takes the home roller's arm
// for the unload. When tray id is on the same roller it keeps that arm from
// the unload's COLLECT to the load's SEPARATE, as one arm job: a second
// group's swap on the roller waits for the whole of this one instead of
// slipping its unload between this unload and this load. Otherwise it hands
// the home arm back and takes the other roller's for the load, so it never
// holds two arms. Each arm wait is charged to the spans of the choreography it
// precedes, as UnloadArray and LoadArray charge it. Into an empty group,
// SwapArray is LoadArray.
func (lib *Library) SwapArray(p *sim.Proc, gi int, id TrayID) (err error) {
	tray, err := lib.Tray(id)
	if err != nil {
		return err
	}
	g, err := lib.Group(gi)
	if err != nil {
		return err
	}
	if !g.Loaded() {
		return lib.LoadArray(p, id, gi)
	}
	g.busy.Acquire(p)
	defer g.busy.Release()
	home, err := lib.unloadTarget(g, nil)
	if err != nil {
		return err
	}
	c := lib.startUnload(p, home.ID, gi)
	arm := lib.Rollers[home.ID.Roller].mech
	arm.Acquire(p)
	defer func() { arm.Release() }()
	err = lib.unload(p, g, home)
	lib.end(p, c, err)
	if err != nil {
		return err
	}
	c = lib.startLoad(p, id, gi)
	if id.Roller != home.ID.Roller {
		arm.Release()
		arm = lib.Rollers[id.Roller].mech
		arm.Acquire(p)
	}
	err = lib.load(p, tray, g)
	lib.end(p, c, err)
	return err
}
