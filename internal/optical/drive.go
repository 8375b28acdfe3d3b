package optical

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ros/internal/chunk"
	"ros/internal/faultinject"
	"ros/internal/obs"
	"ros/internal/sim"
)

// Drive-level errors.
var (
	ErrNoDisc       = errors.New("optical: no disc in drive")
	ErrDriveLoaded  = errors.New("optical: drive already holds a disc")
	ErrBurnAborted  = errors.New("optical: burn interrupted")
	ErrReadOnlyPath = errors.New("optical: discs are written only by burning")
	ErrDriveDead    = errors.New("optical: drive dead")
)

// DriveState is the drive's lifecycle state.
type DriveState int

// Drive states.
const (
	StateSleep DriveState = iota // powered down, tray closed, no disc spun up
	StateIdle                    // spun up with a disc mounted
	StateEmpty                   // awake, no disc
	StateReading
	StateBurning
)

func (s DriveState) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateIdle:
		return "idle"
	case StateEmpty:
		return "empty"
	case StateReading:
		return "reading"
	case StateBurning:
		return "burning"
	}
	return "unknown"
}

// Timing constants measured by the paper (§5.4).
const (
	// SpinUpTime is the "drive mounting disc" delay (~2 s), paid when the
	// drive was asleep.
	SpinUpTime = 2 * time.Second
	// TrayTime covers tray open/close during load/eject.
	TrayTime = 1500 * time.Millisecond
	// SeekTime is the optical head seek for a non-sequential read (~100 ms).
	SeekTime = 100 * time.Millisecond
	// AppendFormatTime is the metadata-area formatting delay when starting
	// an append-mode track ("tens of seconds", §2.1/§4.8).
	AppendFormatTime = 30 * time.Second
)

// readSpeed returns the single-drive sustained read rate (Table 2).
func readSpeed(m MediaType) float64 {
	switch m {
	case Media25:
		return 24.1e6
	case Media100:
		return 18.0e6
	}
	return 0
}

// contentionLoss is the per-extra-active-drive efficiency loss on the shared
// SATA/HBA path. Calibrated so 12 concurrent readers aggregate to the
// paper's Table 2: 25 GB 12x24.1 -> 282.5 MB/s, 100 GB 12x18.0 -> 210.2 MB/s.
const contentionLoss = 0.0023

// Sharer models the drive group's shared controller path: a small
// per-active-drive efficiency loss for reads, and an aggregate bandwidth cap
// for burning (the buffer-to-drive pipeline that shapes Fig 9).
type Sharer struct {
	env        *sim.Env
	BurnCap    float64 // aggregate burn bytes/sec; 0 = uncapped
	activeRead int
	burnDemand float64 // sum of nominal demands of active burners, kept while capBinds
	drives     int     // drives attached by NewDrive
}

// NewSharer creates a controller path model. burnCap of 0 disables the
// aggregate burn throttle.
func NewSharer(env *sim.Env, burnCap float64) *Sharer {
	return &Sharer{env: env, BurnCap: burnCap}
}

// readFactor returns the efficiency multiplier for one reader given current
// concurrency.
func (s *Sharer) readFactor() float64 {
	f := 1 - contentionLoss*float64(s.activeRead-1)
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// capBinds reports whether the burn cap can throttle at all: whether every
// drive of the group burning at the top speed of any media would exceed it.
// While it cannot, burnFactor is 1 whatever the demand, so burners register
// none.
func (s *Sharer) capBinds() bool {
	return s.BurnCap > 0 && float64(s.drives)*maxSpeedX*BluRay1X > s.BurnCap
}

// burnFactor returns the throttle multiplier for burning drives.
func (s *Sharer) burnFactor() float64 {
	if s.BurnCap <= 0 || s.burnDemand <= s.BurnCap {
		return 1
	}
	return s.BurnCap / s.burnDemand
}

// SpeedSample is one point of a recording-speed curve (Figs 8-10).
type SpeedSample struct {
	T        time.Duration // virtual time since burn start
	Progress float64       // fraction of logical capacity burned
	SpeedX   float64       // instantaneous speed in Blu-ray X units
}

// BurnReport summarizes a completed (or interrupted) burn.
type BurnReport struct {
	Duration     time.Duration
	LogicalBytes int64
	PayloadBytes int64
	AvgSpeedX    float64
	Samples      []SpeedSample
	Interrupted  bool
}

// BurnSource lends image payload to the drive in sequential ranges, charging
// its own (buffer-side) virtual time. Lend appends to dst read-only pieces
// that cover image bytes [off, off+n) in order; the disc keeps them
// (chunk.Store.Adopt), and the source must not write to them afterwards.
type BurnSource interface {
	Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error)
	Size() int64
}

// Drive is one optical drive. Methods must run in simulation processes; a
// drive serves one operation at a time (guarded by its busy resource).
type Drive struct {
	env    *sim.Env
	ID     string
	sharer *Sharer
	state  DriveState
	disc   *Disc
	busy   *sim.Resource
	head   int64 // current optical head position for seek modeling
	cold   bool  // disc inserted by the arm but not yet spun up
	dead   bool  // hardware failure (fault-injected); every operation fails

	// inBurn is set while a Burn holds the drive; interrupt is set by
	// InterruptBurn while it is, and checked at quantum boundaries.
	inBurn, interrupt bool
	// st is the burn's current sleep; arming a rule that matches the drive's
	// optical.burn point cuts it (faultinject.Watch).
	st stretch
	// lent collects the pieces one burn quantum borrows from its source;
	// reused from quantum to quantum.
	lent []chunk.Piece

	// Stats.
	BytesBurned int64

	// m holds obs handles shared across all drives attached to the same
	// registry (aggregate metrics). Zero value (nil handles) is inert, so
	// drives work unattached.
	m driveMetrics
}

// driveMetrics are the aggregate optical-layer metrics. Handles are nil-safe,
// so a drive that was never attached records nothing.
type driveMetrics struct {
	bytesBurned *obs.Counter
	bytesRead   *obs.Counter
	burns       *obs.Counter
	readLatency *obs.Histogram
	drivesDead  *obs.Gauge
}

// AttachObs connects the drive to a metrics registry. Drives attached to the
// same registry share one set of aggregate counters/histograms
// (optical.bytes_burned, optical.bytes_read, optical.burns,
// optical.read.latency, optical.drives_dead); per-drive struct fields keep
// their exact per-drive meaning.
func (dr *Drive) AttachObs(r *obs.Registry) {
	dr.m = driveMetrics{
		bytesBurned: r.Counter("optical.bytes_burned"),
		bytesRead:   r.Counter("optical.bytes_read"),
		burns:       r.Counter("optical.burns"),
		readLatency: r.Histogram("optical.read.latency"),
		drivesDead:  r.Gauge("optical.drives_dead"),
	}
}

// NewDrive creates a drive attached to the given controller sharer (which
// may be shared by a 12-drive group). Drives start asleep and empty.
func NewDrive(env *sim.Env, id string, sharer *Sharer) *Drive {
	if sharer == nil {
		sharer = NewSharer(env, 0)
	}
	sharer.drives++
	dr := &Drive{env: env, ID: id, sharer: sharer, state: StateSleep, busy: sim.NewResource(env, 1)}
	faultinject.Watch(env, dr.ruleArmed)
	return dr
}

// State returns the drive's current state.
func (dr *Drive) State() DriveState { return dr.state }

// Disc returns the loaded disc, or nil.
func (dr *Drive) Disc() *Disc { return dr.disc }

// Loaded reports whether a disc is present.
func (dr *Drive) Loaded() bool { return dr.disc != nil }

// health fails the operation if the drive is already dead, and consults the
// drive-death fault point: a firing rule kills the drive permanently.
func (dr *Drive) health(p *sim.Proc) error {
	if dr.dead {
		return fmt.Errorf("%w: %s", ErrDriveDead, dr.ID)
	}
	if err := faultinject.Check(p, faultinject.PointDriveDead, dr.ID); err != nil {
		dr.dead = true
		dr.m.drivesDead.Add(1)
		return fmt.Errorf("%w: %s (%v)", ErrDriveDead, dr.ID, err)
	}
	return nil
}

// Replace models a field-replaceable-unit swap: a dead drive gets a fresh
// mechanism and serves again (chaos heal phases use it, and it is what lets
// a drives-dead alert resolve — drive death is otherwise permanent). No-op
// on a live drive.
func (dr *Drive) Replace() {
	if !dr.dead {
		return
	}
	dr.dead = false
	dr.m.drivesDead.Add(-1)
	if dr.env != nil {
		dr.env.Emit("optical.drive.replace", dr.ID, func() string { return "FRU swap" })
	}
}

// Load inserts a disc (the robotic arm has already placed it on the open
// tray). Charges tray close plus spin-up when waking from sleep.
func (dr *Drive) Load(p *sim.Proc, d *Disc) error {
	dr.busy.Acquire(p)
	defer dr.busy.Release()
	if dr.disc != nil {
		return fmt.Errorf("%w: %s", ErrDriveLoaded, dr.ID)
	}
	cost := TrayTime
	if dr.state == StateSleep {
		cost += SpinUpTime
	}
	p.Sleep(cost)
	dr.disc = d
	dr.state = StateIdle
	dr.head = 0
	return nil
}

// ArmLoad inserts a disc with no time charge: the robotic arm's SEPARATE
// operation (61 s for 12 discs) already accounts for the mechanical
// placement. The drive spins up lazily on first access (SpinUpTime), which
// is how Table 1's 70.5 s roller-read latency decomposes.
func (dr *Drive) ArmLoad(d *Disc) error {
	if dr.disc != nil {
		return fmt.Errorf("%w: %s", ErrDriveLoaded, dr.ID)
	}
	dr.disc = d
	dr.state = StateIdle
	dr.head = 0
	dr.cold = true
	return nil
}

// ArmEject removes the disc with no time charge (covered by COLLECT).
func (dr *Drive) ArmEject() (*Disc, error) {
	if dr.disc == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoDisc, dr.ID)
	}
	d := dr.disc
	dr.disc = nil
	dr.state = StateEmpty
	dr.cold = false
	return d, nil
}

// warmUp charges the lazy spin-up for arm-loaded discs. The robotic arm
// ejects mechanically, without taking the drive's busy lock, so a tray swap
// can land while the drive spins up: the caller then gets a typed error
// instead of a vanished disc.
func (dr *Drive) warmUp(p *sim.Proc) error {
	if dr.cold {
		sp := obs.StartChild(p, "optical.spinup")
		sp.Annotate("drive", dr.ID)
		p.Sleep(SpinUpTime)
		dr.cold = false
		sp.End(p)
	}
	if dr.disc == nil {
		return fmt.Errorf("%w: %s (disc ejected during spin-up)", ErrNoDisc, dr.ID)
	}
	return nil
}

// Eject removes and returns the disc.
func (dr *Drive) Eject(p *sim.Proc) (*Disc, error) {
	dr.busy.Acquire(p)
	defer dr.busy.Release()
	if dr.disc == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoDisc, dr.ID)
	}
	p.Sleep(TrayTime)
	d := dr.disc
	dr.disc = nil
	dr.state = StateEmpty
	return d, nil
}

// nominalSpeedX returns the drive's instantaneous recording speed in X units
// at burn progress pr in [0,1].
//
// 25 GB media (Fig 8): constant linear velocity with the motor accelerating
// linearly in time from ~4.4X at the inner tracks to 12X at the outer edge;
// expressed over progress that is v(pr) = sqrt(v0^2 + pr*(v1^2 - v0^2)),
// giving the paper's 8.2X average and 675 s per disc.
//
// 100 GB media (Fig 10): constant 6X with fail-safe decelerations to 4X
// when servo disturbance is detected (~3.4% of steps), averaging 5.9X and
// 3757 s per disc.
func (dr *Drive) nominalSpeedX(pr float64, dip bool) float64 {
	switch dr.disc.Type {
	case Media25:
		const v0, v1 = 4.4, maxSpeedX
		return math.Sqrt(v0*v0 + pr*(v1*v1-v0*v0))
	case Media100:
		if dip {
			return 4.0
		}
		return 6.0
	}
	return 1
}

// maxSpeedX is the fastest any media records: 25 GB at its outer edge.
const maxSpeedX = 12.0

// dipProbability is the per-chunk probability of a fail-safe speed dip for
// 100 GB media, calibrated to a 5.9X average.
const dipProbability = 0.034

// burnChunks is the number of quanta a burn is divided into. At each quantum
// boundary the burn re-samples speed and the group throttle and looks at its
// interrupt flag and the optical.burn fault point; one sleep covers every
// quantum after the current one whose timing that cannot change (see
// decided).
const burnChunks = 500

// shortSeekWindow is the head-travel distance served by a short hop instead
// of a full-stroke seek.
const shortSeekWindow = 16 << 20

// BurnOptions control a burn session.
type BurnOptions struct {
	// LogicalBytes is the image size driving the timing model. If zero, the
	// disc's remaining capacity is burned (write-all-once of a full image).
	LogicalBytes int64
	// Append starts a pseudo-overwrite track: pays AppendFormatTime and the
	// per-track metadata-zone capacity loss (§2.1).
	Append bool
	// OnSample, if set, receives speed samples for figure generation.
	OnSample func(SpeedSample)
}

// Burn records an image onto the loaded disc in write-all-once mode: the
// payload is streamed from src and the remainder of LogicalBytes (sparse
// zeros) advances the watermark. Returns a report with the speed curve.
func (dr *Drive) Burn(p *sim.Proc, src BurnSource, opts BurnOptions) (rep BurnReport, err error) {
	dr.busy.Acquire(p)
	defer dr.busy.Release()
	dr.inBurn = true
	defer func() { dr.inBurn, dr.interrupt = false, false }()
	sp := obs.StartChild(p, "optical.burn")
	sp.Annotate("drive", dr.ID)
	defer func() {
		sp.AnnotateInt("logical", rep.LogicalBytes)
		sp.AnnotateInt("payload", rep.PayloadBytes)
		if rep.Interrupted {
			sp.Annotate("interrupted", "true")
		}
		sp.Fail(p, err)
	}()
	if err = dr.health(p); err != nil {
		return rep, err
	}
	if dr.disc == nil {
		return rep, fmt.Errorf("%w: %s", ErrNoDisc, dr.ID)
	}
	if err = dr.warmUp(p); err != nil {
		return rep, err
	}
	if dr.interrupt {
		// Interrupted while it waited to spin up: the burn never starts.
		rep.Interrupted = true
		return rep, ErrBurnAborted
	}
	if dr.disc.Blank() == false && !opts.Append {
		return rep, fmt.Errorf("%w: disc %s already burned (use Append)", ErrWORMViolation, dr.disc.ID)
	}
	logical := opts.LogicalBytes
	if logical <= 0 {
		logical = dr.disc.Remaining()
		if opts.Append && len(dr.disc.tracks) > 0 {
			logical -= TrackMetaZone
		}
	}
	payload := int64(0)
	if src != nil {
		payload = src.Size()
	}
	if payload > logical {
		return rep, fmt.Errorf("optical: payload %d exceeds logical size %d", payload, logical)
	}
	if _, err := dr.disc.beginTrack(logical); err != nil {
		return rep, err
	}
	dr.state = StateBurning
	defer func() { dr.state = StateIdle }()
	if opts.Append && len(dr.disc.tracks) > 1 {
		p.Sleep(AppendFormatTime)
	}
	start := p.Now()
	throttled := dr.sharer.capBinds()
	myDemand := 0.0
	defer func() { dr.sharer.burnDemand -= myDemand }()
	defer func() {
		if dr.st.p != nil {
			// Close unwound the burner in its sleep.
			dr.settle(p.Now())
			dr.st.p = nil
		}
	}()

	chunk := max(logical/burnChunks, 1)
	var burnedLogical, copied int64
	rng := dr.env.Rand()
	for burnedLogical < logical {
		if dr.interrupt {
			rep.Interrupted = true
			break
		}
		// Quantum-boundary fault points: a burn error aborts the session
		// (the caller's burn task fails the tray and retries on fresh media).
		if err = faultinject.Check(p, faultinject.PointOpticalBurn, dr.ID); err != nil {
			return rep, err
		}
		n := min(chunk, logical-burnedLogical)
		pr := float64(burnedLogical) / float64(logical)
		dip := dr.disc.Type == Media100 && rng.Float64() < dipProbability
		demand := dr.nominalSpeedX(pr, dip) * BluRay1X
		// Update this drive's registered demand and apply the group throttle.
		if throttled {
			dr.sharer.burnDemand += demand - myDemand
			myDemand = demand
		}
		eff := demand * dr.sharer.burnFactor()
		if opts.OnSample != nil {
			opts.OnSample(SpeedSample{T: p.Now() - start, Progress: pr, SpeedX: eff / BluRay1X})
		}
		// Stream the corresponding payload range from the buffer.
		if copied < payload {
			cn := min(n, payload-copied)
			// The disc keeps what the source lends: nothing is copied.
			dr.lent, err = src.Lend(p, copied, cn, dr.lent[:0])
			if err != nil {
				return rep, fmt.Errorf("optical: burn source read: %w", err)
			}
			err = dr.disc.burnBytes(dr.lent, cn)
			clear(dr.lent)
			if err != nil {
				return rep, err
			}
			if cn < n {
				if err := dr.disc.extendWatermark(n - cn); err != nil {
					return rep, err
				}
			}
			copied += cn
		} else {
			if err := dr.disc.extendWatermark(n); err != nil {
				return rep, err
			}
		}
		// One sleep covers this quantum and, when their timing is decided,
		// all that follow it.
		to := burnedLogical + n
		if copied == payload && dr.decided(opts) {
			to = logical
		}
		dr.st = stretch{p: p, start: p.Now(), first: sim.ByteTime(float64(n), eff),
			from: burnedLogical, to: to, logical: logical, chunk: chunk}
		_, _, dr.st.end = dr.after(math.MaxInt64)
		p.Sleep(dr.st.end - p.Now())
		dr.st.p = nil
		if burnedLogical, err = dr.settle(p.Now()); err != nil {
			return rep, err
		}
	}
	rep.Duration = p.Now() - start
	rep.LogicalBytes = burnedLogical
	rep.PayloadBytes = copied
	if rep.Duration > 0 {
		rep.AvgSpeedX = float64(burnedLogical) / rep.Duration.Seconds() / BluRay1X
	}
	dr.m.burns.Add(1)
	dr.m.bytesBurned.Add(burnedLogical)
	if rep.Interrupted {
		return rep, ErrBurnAborted
	}
	return rep, nil
}

// stretch is one sleep of a burn: the quanta from byte from up to byte to of
// a track of logical bytes cut into chunk-byte quanta, begun at start and
// ending at end. The first quantum lasts first; every later one's timing is
// decided.
type stretch struct {
	p                        *sim.Proc // the burner while it sleeps
	start, first, end        time.Duration
	from, to, logical, chunk int64
}

// decided reports whether the quanta after the current one are already timed
// — nothing they look at can change unless a cut says so: their payload has
// been lent (the caller's check), the 25 GB speed curve draws no random
// numbers, no sample is taken, the group cap cannot bind, no interrupt is
// pending and no armed optical.burn rule matches the drive. InterruptBurn
// and arming a matching rule cut the stretch.
func (dr *Drive) decided(opts BurnOptions) bool {
	return dr.disc.Type == Media25 && opts.OnSample == nil && !dr.interrupt && !dr.sharer.capBinds() &&
		!faultinject.Armed(dr.env, faultinject.PointOpticalBurn, dr.ID)
}

// quantum returns the size and end time of the stretch's quantum at byte pos,
// which begins at time at.
func (dr *Drive) quantum(pos int64, at time.Duration) (int64, time.Duration) {
	st := &dr.st
	n := min(st.chunk, st.logical-pos)
	if pos == st.from {
		return n, st.start + st.first
	}
	pr := float64(pos) / float64(st.logical)
	return n, at + sim.ByteTime(float64(n), dr.nominalSpeedX(pr, false)*BluRay1X)
}

// after walks the stretch's quantum boundaries up to the first one later
// than t, or to its end. It returns the bytes burned at the last boundary at
// or before t, and where and when the next one falls.
func (dr *Drive) after(t time.Duration) (done, pos int64, at time.Duration) {
	st := &dr.st
	pos, at = st.from, st.start
	for at <= t {
		done = pos
		if pos == st.to {
			break
		}
		var n int64
		n, at = dr.quantum(pos, at)
		pos += n
	}
	return done, pos, at
}

// settle moves the burn over the stretch's quanta that have ended by now,
// as a burn stepping one quantum at a time would have: BytesBurned, and the
// watermark of every quantum begun (the first took its own before the
// sleep). It returns the bytes burned. A burner wakes at the stretch's end;
// before it, Close is unwinding it mid-quantum.
func (dr *Drive) settle(now time.Duration) (int64, error) {
	st := &dr.st
	done, begun := st.to, st.to
	if now != st.end {
		done, begun, _ = dr.after(now)
	}
	first, _ := dr.quantum(st.from, st.start)
	dr.BytesBurned += done - st.from
	return done, dr.disc.extendWatermark(begun - st.from - first)
}

// cut ends a sleeping stretch at its first quantum boundary after now: where
// a burn stepping one quantum at a time would next look at its interrupt
// flag and the optical.burn fault point.
func (dr *Drive) cut() {
	st := &dr.st
	if st.p == nil {
		return
	}
	if _, pos, at := dr.after(dr.env.Now()); pos < st.to {
		st.to, st.end = pos, at
		st.p.Hasten(at)
	}
}

// ruleArmed cuts a sleeping stretch when a rule armed on the fault plane
// matches the drive's optical.burn point.
func (dr *Drive) ruleArmed(r faultinject.Rule) {
	if r.Matches(faultinject.PointOpticalBurn, dr.ID) {
		dr.cut()
	}
}

// InterruptBurn requests that an in-progress burn stop at the next quantum
// boundary — the §4.8 "immediately interrupt the current disc array burning"
// read policy. The burn returns ErrBurnAborted; the disc keeps its partial
// track and can later be resumed with Append mode. A burn still waiting to
// spin up does not start: it returns ErrBurnAborted with the disc untouched.
// With no burn in progress it does nothing.
func (dr *Drive) InterruptBurn() {
	if dr.inBurn {
		dr.interrupt = true
		dr.cut()
	}
}

// ReadAt reads from the loaded disc at the media's sustained rate, charging
// a head seek for non-sequential access and the group contention factor.
func (dr *Drive) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	return dr.read(p, off, int64(len(buf)), func(d *Disc) error { return d.readAt(buf, off) })
}

// Lend is ReadAt without the copy: the same charges and fault points, then
// read-only pieces of the disc's bytes [off, off+n) are appended to dst
// (chunk.Store.Lend). A cache fill lends a disc image into a buffer slot.
func (dr *Drive) Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error) {
	err := dr.read(p, off, n, func(d *Disc) (err error) {
		dst, err = d.lend(dst, off, n)
		return err
	})
	return dst, err
}

// read charges one read of n bytes at off and then has move take the bytes
// off the disc.
func (dr *Drive) read(p *sim.Proc, off, n int64, move func(*Disc) error) error {
	dr.busy.Acquire(p)
	defer dr.busy.Release()
	if err := dr.health(p); err != nil {
		return err
	}
	if dr.disc == nil {
		return fmt.Errorf("%w: %s", ErrNoDisc, dr.ID)
	}
	if err := dr.warmUp(p); err != nil {
		return err
	}
	prev := dr.state
	dr.state = StateReading
	defer func() { dr.state = prev }()
	sp := obs.StartChild(p, "optical.read")
	sp.Annotate("drive", dr.ID)
	sp.AnnotateInt("bytes", n)
	t := time.Duration(0)
	if off != dr.head {
		dist := off - dr.head
		if dist < 0 {
			dist = -dist
		}
		if dist <= shortSeekWindow {
			t += SeekTime / 4 // short head hop within the same disc zone
		} else {
			t += SeekTime
		}
	}
	dr.sharer.activeRead++
	rate := readSpeed(dr.disc.Type) * dr.sharer.readFactor()
	t += sim.ByteTime(float64(n), rate)
	p.Sleep(t)
	dr.sharer.activeRead--
	if dr.disc == nil {
		// As in warmUp, a tray swap can land mid-transfer. Surface a typed
		// error instead of dereferencing the vanished disc; the mount layer
		// re-resolves the handle against the tray's new location.
		err := fmt.Errorf("%w: %s (disc ejected mid-read)", ErrNoDisc, dr.ID)
		sp.Fail(p, err)
		return err
	}
	dr.head = off + n
	dr.m.bytesRead.Add(n)
	dr.m.readLatency.Observe(int64(t))
	// Media fault points mutate the disc and let its read path surface the
	// typed error (ErrDiscFailed / ErrBadSector); optical.read injects a
	// transient drive-side read failure directly.
	if err := faultinject.Check(p, faultinject.PointMediaAged, dr.disc.ID); err != nil {
		dr.disc.Fail()
	}
	if err := faultinject.Check(p, faultinject.PointMediaLSE, dr.disc.ID); err != nil {
		// The head sweeps [off, off+len) during the transfer, so the latent
		// error can develop anywhere in the range. Derive the sector from the
		// disc identity: parallel parity scans read identical offsets on every
		// column at once, and anchoring the LSE to the read's start would make
		// concurrent injections land on the same sector of different discs —
		// manufacturing beyond-redundancy loss out of independent faults.
		dr.disc.CorruptSector(off + lseOffset(dr.disc.ID, int(n)))
	}
	err := faultinject.Check(p, faultinject.PointOpticalRead, dr.ID)
	if err == nil {
		err = move(dr.disc)
	}
	sp.Fail(p, err)
	return err
}

// lseOffset places an injected latent sector error within an n-byte read,
// keyed on the disc identity (FNV-1a) so distinct discs develop errors at
// distinct sectors even when read in lockstep. Deterministic, so campaign
// replay is preserved.
func lseOffset(id string, n int) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	sectors := int64(n) / SectorSize
	if sectors <= 1 {
		return 0
	}
	return int64(h%uint64(sectors)) * SectorSize
}

// ImageView presents the loaded disc's image as one contiguous byte range
// even when the burn was interrupted and resumed, i.e. the image spans
// multiple tracks separated by per-track metadata zones: logical image
// offsets are mapped across the concatenated track data areas.
type ImageView struct{ Drive *Drive }

// tracks calls fn for each piece of image bytes [off, off+n) that lies on a
// burned track, in order: its disc offset, its position in the range and its
// length. It returns how much of the range the tracks cover.
func (v ImageView) tracks(off, n int64, fn func(discOff, pos, m int64) error) (int64, error) {
	d := v.Drive.Disc()
	if d == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoDisc, v.Drive.ID)
	}
	logical, done := int64(0), int64(0)
	for _, tr := range d.Tracks() {
		if done == n {
			break
		}
		if off+done < logical+tr.Len {
			inOff := max(off+done-logical, 0)
			m := min(tr.Len-inOff, n-done)
			if err := fn(tr.Start+inOff, done, m); err != nil {
				return done, err
			}
			done += m
		}
		logical += tr.Len
	}
	return done, nil
}

// ReadAt implements udf.Backend over the concatenated tracks.
func (v ImageView) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	done, err := v.tracks(off, int64(len(buf)), func(discOff, pos, m int64) error {
		return v.Drive.ReadAt(p, buf[pos:pos+m], discOff)
	})
	if err != nil {
		return err
	}
	// Anything beyond the burned tracks reads as zero (sparse image tail).
	clear(buf[done:])
	return nil
}

// Lend lends image bytes [off, off+n) through Drive.Lend, track by track.
// The range must lie on burned tracks.
func (v ImageView) Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error) {
	done, err := v.tracks(off, n, func(discOff, _, m int64) (err error) {
		dst, err = v.Drive.Lend(p, discOff, m, dst)
		return err
	})
	if err == nil && done < n {
		err = fmt.Errorf("optical: lend of image bytes [%d, %d) past the burned tracks", off, off+n)
	}
	return dst, err
}

// WriteAt implements udf.Backend and always fails: WORM media.
func (v ImageView) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return ErrReadOnlyPath
}

// Size implements udf.Backend (the disc's logical capacity).
func (v ImageView) Size() int64 {
	if v.Drive.disc == nil {
		return 0
	}
	return v.Drive.disc.Capacity()
}
