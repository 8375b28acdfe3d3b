// Package plc models ROS's Programmable Logic Controller: the instruction
// set the system controller (SC) sends over TCP/IP to drive motors and read
// sensors (§3.3 of the paper).
//
// The controller executes one instruction at a time per roller, charging the
// calibrated mechanical timings, maintaining motor state (arm layer, roller
// angle, tray latch) and verifying sensor preconditions before each motion —
// the paper's "feedback control loop with a set of sensors". Timing defaults
// are calibrated so the composite load/unload choreography in internal/rack
// reproduces Table 3 exactly.
package plc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ros/internal/sim"
)

// Op is a PLC instruction opcode.
type Op string

// The PLC instruction set.
const (
	OpRotate   Op = "ROTATE"   // ROTATE <slot>        spin roller to put slot at the arm
	OpArm      Op = "ARM"      // ARM <layer>          move arm vertically to layer
	OpArmTop   Op = "ARMTOP"   // ARMTOP               lift arm to the position atop the drives
	OpFanOut   Op = "FANOUT"   // FANOUT               fan the aligned tray out (lock hook)
	OpFanIn    Op = "FANIN"    // FANIN                fan the tray back into the roller
	OpFetch    Op = "FETCH"    // FETCH                grab the 12-disc array off the tray
	OpPlace    Op = "PLACE"    // PLACE                put the carried array onto the tray
	OpSeparate Op = "SEPARATE" // SEPARATE <n>         separate n discs one-by-one into drives
	OpCollect  Op = "COLLECT"  // COLLECT <n>          collect n discs one-by-one from drives
	OpStatus   Op = "STATUS"   // STATUS               read all sensors
)

// PLC errors (sensor/feedback failures).
var (
	ErrBadCommand   = errors.New("plc: malformed command")
	ErrPrecondition = errors.New("plc: sensor precondition failed")
	ErrMotorFault   = errors.New("plc: motor fault")
)

// Command is one instruction with its integer arguments.
type Command struct {
	Op   Op
	Args []int
}

// Encode renders the command in the line protocol the SC sends over TCP.
func (c Command) Encode() string {
	parts := []string{string(c.Op)}
	for _, a := range c.Args {
		parts = append(parts, strconv.Itoa(a))
	}
	return strings.Join(parts, " ")
}

// Decode parses a line-protocol command.
func Decode(line string) (Command, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("%w: empty line", ErrBadCommand)
	}
	cmd := Command{Op: Op(fields[0])}
	switch cmd.Op {
	case OpRotate, OpArm, OpSeparate, OpCollect:
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: %s needs 1 arg", ErrBadCommand, cmd.Op)
		}
	case OpArmTop, OpFanOut, OpFanIn, OpFetch, OpPlace, OpStatus:
		if len(fields) != 1 {
			return Command{}, fmt.Errorf("%w: %s takes no args", ErrBadCommand, cmd.Op)
		}
	default:
		return Command{}, fmt.Errorf("%w: unknown op %q", ErrBadCommand, fields[0])
	}
	for _, f := range fields[1:] {
		n, err := strconv.Atoi(f)
		if err != nil {
			return Command{}, fmt.Errorf("%w: bad arg %q", ErrBadCommand, f)
		}
		cmd.Args = append(cmd.Args, n)
	}
	return cmd, nil
}

// Sensors is a snapshot of the feedback sensors.
type Sensors struct {
	ArmLayer    int  // current arm layer; Layers means "atop drives"
	ArmCarrying bool // disc-array presence sensor on the arm
	RollerSlot  int  // slot currently aligned with the arm
	TrayOut     bool // tray latch sensor: a tray is fanned out
	Moving      bool
}

// Timing is the motor timing configuration. Defaults (DefaultTiming) are
// calibrated against §3.2/§5.5 and Table 3.
type Timing struct {
	RotatePerSlot   time.Duration // per slot step of roller rotation
	ArmFullStroke   time.Duration // empty arm, top layer -> bottom layer
	ArmLoadedStroke time.Duration // arm carrying a disc array, full stroke
	ArmBaseEmpty    time.Duration // per-move positioning overhead, empty arm
	ArmBaseLoaded   time.Duration // per-move positioning overhead, carrying
	ArmLift         time.Duration // lift from tray position to atop drives
	FanOut          time.Duration
	FanIn           time.Duration
	Fetch           time.Duration // grab array off a fanned-out tray
	Place           time.Duration
	SeparatePerDisc time.Duration // per-disc separate into a drive
	CollectPerDisc  time.Duration // per-disc collect from a drive
}

// DefaultTiming returns timings calibrated so internal/rack's composite
// choreography reproduces Table 3:
//
//	load(top)   = rotate 1.0 + descend 0.8 + fanout 2.0 + fetch 1.5 + lift 2.4 + separate 61.0 = 68.7 s
//	load(bot)   = + empty full stroke 4.5 s                                                    = 73.2 s
//	unload(top) = collect 74.0 + rotate 1.0 + fanout 2.0 + descend 1.2 + place 1.5 + fanin 2.0 = 81.7 s
//	unload(bot) = + loaded full stroke 4.8 s                                                   = 86.5 s
//
// Roller rotation stays under the paper's 2 s bound (max 3 slot steps for 6
// slots) and the arm full stroke is the paper's ~5 s bottom-to-top travel.
func DefaultTiming() Timing {
	return Timing{
		RotatePerSlot:   time.Second / 3, // max 3 steps = 1.0 s < 2 s
		ArmFullStroke:   4500 * time.Millisecond,
		ArmLoadedStroke: 4800 * time.Millisecond,
		ArmBaseEmpty:    800 * time.Millisecond,
		ArmBaseLoaded:   1200 * time.Millisecond,
		ArmLift:         2400 * time.Millisecond,
		FanOut:          2 * time.Second,
		FanIn:           2 * time.Second,
		Fetch:           1500 * time.Millisecond,
		Place:           1500 * time.Millisecond,
		SeparatePerDisc: 61 * time.Second / 12,
		CollectPerDisc:  74 * time.Second / 12,
	}
}

// Controller executes PLC instructions for one roller mechanism.
type Controller struct {
	env    *sim.Env
	timing Timing
	layers int
	slots  int

	armLayer    int // layers == atop drives
	armCarrying bool
	rollerSlot  int
	trayOut     bool
	faulty      bool

	// The arm and the roller are driven by distinct motors, so arm motion
	// and roller rotation / tray fan-in can be scheduled in parallel (§3.2).
	armMu    *sim.Resource
	rollerMu *sim.Resource

	// Stats for the power model and diagnostics.
	RotateTime   time.Duration
	ArmTime      time.Duration
	SeparateOps  int
	CollectOps   int
	Instructions int
}

// NewController creates a PLC channel for a roller with the given geometry.
// The arm starts at the top (paper §5.2: "the start position of the robot
// arm is near the uppermost layer").
func NewController(env *sim.Env, timing Timing, layers, slots int) *Controller {
	return &Controller{
		env:      env,
		timing:   timing,
		layers:   layers,
		slots:    slots,
		armLayer: layers, // atop drives
		armMu:    sim.NewResource(env, 1),
		rollerMu: sim.NewResource(env, 1),
	}
}

// Sensors returns the current sensor snapshot.
func (c *Controller) Sensors() Sensors {
	return Sensors{
		ArmLayer:    c.armLayer,
		ArmCarrying: c.armCarrying,
		RollerSlot:  c.rollerSlot,
		TrayOut:     c.trayOut,
	}
}

// InjectFault makes the next motion instruction fail, exercising the
// feedback-control error path.
func (c *Controller) InjectFault() { c.faulty = true }

// motor returns the resource guarding the motor an instruction drives.
func (c *Controller) motor(op Op) *sim.Resource {
	switch op {
	case OpRotate, OpFanOut, OpFanIn:
		return c.rollerMu
	case OpStatus:
		return nil
	default:
		return c.armMu
	}
}

// Exec executes one instruction, blocking for its mechanical duration.
// Instructions for different motors (arm vs roller) may run concurrently;
// instructions for the same motor serialize FIFO.
func (c *Controller) Exec(p *sim.Proc, cmd Command) (Sensors, error) {
	if m := c.motor(cmd.Op); m != nil {
		m.Acquire(p)
		defer m.Release()
	}
	return c.run(p, cmd)
}

// Start runs cmd in a new process named name and returns at once, dropping
// the outcome. The instruction's motor is claimed before Start returns, so
// the next instruction for that motor queues behind this motion even when it
// is issued before the new process first runs. (If the motor is busy, the new
// process queues for it like any Exec.)
func (c *Controller) Start(name string, cmd Command) {
	m := c.motor(cmd.Op)
	held := m != nil && m.TryAcquire()
	c.env.Go(name, func(p *sim.Proc) {
		if m != nil {
			if !held {
				m.Acquire(p)
			}
			defer m.Release()
		}
		_, _ = c.run(p, cmd)
	})
}

// run executes cmd with its motor already held.
func (c *Controller) run(p *sim.Proc, cmd Command) (Sensors, error) {
	c.Instructions++
	if c.faulty && cmd.Op != OpStatus {
		c.faulty = false
		return c.Sensors(), fmt.Errorf("%w: %s", ErrMotorFault, cmd.Op)
	}
	switch cmd.Op {
	case OpStatus:
		return c.Sensors(), nil
	case OpRotate:
		slot := cmd.Args[0]
		if slot < 0 || slot >= c.slots {
			return c.Sensors(), fmt.Errorf("%w: slot %d", ErrBadCommand, slot)
		}
		if c.trayOut {
			return c.Sensors(), fmt.Errorf("%w: cannot rotate with tray out", ErrPrecondition)
		}
		steps := slotDistance(c.rollerSlot, slot, c.slots)
		d := time.Duration(steps) * c.timing.RotatePerSlot
		p.Sleep(d)
		c.RotateTime += d
		c.rollerSlot = slot
	case OpArm:
		layer := cmd.Args[0]
		if layer < 0 || layer >= c.layers {
			return c.Sensors(), fmt.Errorf("%w: layer %d", ErrBadCommand, layer)
		}
		d := c.armTravel(c.armLayer, layer)
		p.Sleep(d)
		c.ArmTime += d
		c.armLayer = layer
	case OpArmTop:
		d := c.timing.ArmLift
		p.Sleep(d)
		c.ArmTime += d
		c.armLayer = c.layers
	case OpFanOut:
		if c.trayOut {
			return c.Sensors(), fmt.Errorf("%w: tray already out", ErrPrecondition)
		}
		p.Sleep(c.timing.FanOut)
		c.trayOut = true
	case OpFanIn:
		if !c.trayOut {
			return c.Sensors(), fmt.Errorf("%w: no tray out", ErrPrecondition)
		}
		p.Sleep(c.timing.FanIn)
		c.trayOut = false
	case OpFetch:
		if !c.trayOut {
			return c.Sensors(), fmt.Errorf("%w: fetch requires a fanned-out tray", ErrPrecondition)
		}
		if c.armCarrying {
			return c.Sensors(), fmt.Errorf("%w: arm already carrying", ErrPrecondition)
		}
		p.Sleep(c.timing.Fetch)
		c.armCarrying = true
	case OpPlace:
		if !c.trayOut {
			return c.Sensors(), fmt.Errorf("%w: place requires a fanned-out tray", ErrPrecondition)
		}
		if !c.armCarrying {
			return c.Sensors(), fmt.Errorf("%w: arm not carrying", ErrPrecondition)
		}
		p.Sleep(c.timing.Place)
		c.armCarrying = false
	case OpSeparate:
		n := cmd.Args[0]
		if !c.armCarrying {
			return c.Sensors(), fmt.Errorf("%w: nothing to separate", ErrPrecondition)
		}
		if c.armLayer != c.layers {
			return c.Sensors(), fmt.Errorf("%w: arm must be atop drives", ErrPrecondition)
		}
		p.Sleep(time.Duration(n) * c.timing.SeparatePerDisc)
		c.SeparateOps += n
		c.armCarrying = false
	case OpCollect:
		n := cmd.Args[0]
		if c.armCarrying {
			return c.Sensors(), fmt.Errorf("%w: arm already carrying", ErrPrecondition)
		}
		if c.armLayer != c.layers {
			return c.Sensors(), fmt.Errorf("%w: arm must be atop drives", ErrPrecondition)
		}
		p.Sleep(time.Duration(n) * c.timing.CollectPerDisc)
		c.CollectOps += n
		c.armCarrying = true
	default:
		return c.Sensors(), fmt.Errorf("%w: %q", ErrBadCommand, cmd.Op)
	}
	return c.Sensors(), nil
}

// ExecLine decodes and executes a line-protocol instruction — the form
// arriving over the SC<->PLC TCP link.
func (c *Controller) ExecLine(p *sim.Proc, line string) (Sensors, error) {
	cmd, err := Decode(line)
	if err != nil {
		return c.Sensors(), err
	}
	return c.Exec(p, cmd)
}

// armTravel returns the time for the arm to move between two layers: a fixed
// positioning base plus a stroke fraction. Layer index c.layers is the
// position atop the drives; travel from there to the top tray layer costs
// just the base (the drives sit directly above the roller).
func (c *Controller) armTravel(from, to int) time.Duration {
	if from == c.layers {
		from = c.layers - 1 // atop drives is adjacent to the top layer
	}
	if to == c.layers {
		to = c.layers - 1
	}
	dist := from - to
	if dist < 0 {
		dist = -dist
	}
	stroke, base := c.timing.ArmFullStroke, c.timing.ArmBaseEmpty
	if c.armCarrying {
		stroke, base = c.timing.ArmLoadedStroke, c.timing.ArmBaseLoaded
	}
	if c.layers <= 1 {
		return base
	}
	return base + time.Duration(float64(stroke)*float64(dist)/float64(c.layers-1))
}

// slotDistance is the shortest rotation distance between slots on a ring.
func slotDistance(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}
