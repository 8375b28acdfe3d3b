package plc

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ros/internal/sim"
)

func newCtl(env *sim.Env) *Controller {
	return NewController(env, DefaultTiming(), 85, 6)
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cmds := []Command{
		{Op: OpRotate, Args: []int{3}},
		{Op: OpArm, Args: []int{84}},
		{Op: OpArmTop},
		{Op: OpFanOut},
		{Op: OpFanIn},
		{Op: OpFetch},
		{Op: OpPlace},
		{Op: OpSeparate, Args: []int{12}},
		{Op: OpCollect, Args: []int{12}},
		{Op: OpStatus},
	}
	for _, c := range cmds {
		got, err := Decode(c.Encode())
		if err != nil {
			t.Errorf("Decode(%q): %v", c.Encode(), err)
			continue
		}
		if got.Op != c.Op || len(got.Args) != len(c.Args) {
			t.Errorf("round trip %q -> %+v", c.Encode(), got)
		}
		for i := range c.Args {
			if got.Args[i] != c.Args[i] {
				t.Errorf("arg mismatch in %q", c.Encode())
			}
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"", "   ", "BOGUS", "ROTATE", "ROTATE x", "ROTATE 1 2", "FETCH 1", "SEPARATE",
	} {
		if _, err := Decode(line); !errors.Is(err, ErrBadCommand) {
			t.Errorf("Decode(%q) = %v, want ErrBadCommand", line, err)
		}
	}
}

func TestRotationTiming(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		start := p.Now()
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{3}}); err != nil {
			t.Fatalf("rotate: %v", err)
		}
		// 3 slot steps at 1/3 s = 1.0 s, within the paper's <2 s bound.
		if d := p.Now() - start; d < time.Second-time.Millisecond || d > time.Second+time.Millisecond {
			t.Errorf("rotate 3 slots took %v, want ~1s", d)
		}
		// Shortest-path: slot 3 -> slot 5 is 2 steps, not 4.
		start = p.Now()
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{5}}); err != nil {
			t.Fatalf("rotate: %v", err)
		}
		if d := p.Now() - start; d < 2*time.Second/3-time.Millisecond || d > 2*time.Second/3+time.Millisecond {
			t.Errorf("rotate 3->5 took %v, want 2/3s", d)
		}
		if c.Sensors().RollerSlot != 5 {
			t.Errorf("slot = %d, want 5", c.Sensors().RollerSlot)
		}
	})
}

func TestMaxRotationUnderTwoSeconds(t *testing.T) {
	// Paper §5.5: "The roller rotation time is less than 2 seconds."
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		worst := time.Duration(0)
		for slot := 0; slot < 6; slot++ {
			start := p.Now()
			if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{slot}}); err != nil {
				t.Fatalf("rotate: %v", err)
			}
			if d := p.Now() - start; d > worst {
				worst = d
			}
		}
		if worst >= 2*time.Second {
			t.Errorf("worst rotation %v, want < 2s", worst)
		}
	})
}

func TestArmFullStrokeUnderFiveSeconds(t *testing.T) {
	// Paper §5.5: "takes up to 5 seconds to move the robotic arm vertically
	// between bottom and top layer".
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := c.Exec(p, Command{Op: OpArm, Args: []int{84}}); err != nil {
			t.Fatalf("arm to top: %v", err)
		}
		start := p.Now()
		if _, err := c.Exec(p, Command{Op: OpArm, Args: []int{0}}); err != nil {
			t.Fatalf("arm to bottom: %v", err)
		}
		d := p.Now() - start
		if d > 5400*time.Millisecond || d < 4*time.Second {
			t.Errorf("full stroke = %v, want ~5s", d)
		}
	})
}

func TestFetchRequiresFannedOutTray(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := c.Exec(p, Command{Op: OpFetch}); !errors.Is(err, ErrPrecondition) {
			t.Errorf("fetch without tray: %v", err)
		}
		if _, err := c.Exec(p, Command{Op: OpFanOut}); err != nil {
			t.Fatalf("fanout: %v", err)
		}
		if _, err := c.Exec(p, Command{Op: OpFetch}); err != nil {
			t.Errorf("fetch with tray out: %v", err)
		}
		if !c.Sensors().ArmCarrying {
			t.Error("arm not carrying after fetch")
		}
		// Can't fetch twice.
		if _, err := c.Exec(p, Command{Op: OpFetch}); !errors.Is(err, ErrPrecondition) {
			t.Errorf("double fetch: %v", err)
		}
	})
}

func TestRotateBlockedWhileTrayOut(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := c.Exec(p, Command{Op: OpFanOut}); err != nil {
			t.Fatalf("fanout: %v", err)
		}
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{1}}); !errors.Is(err, ErrPrecondition) {
			t.Errorf("rotate with tray out: %v", err)
		}
		if _, err := c.Exec(p, Command{Op: OpFanIn}); err != nil {
			t.Fatalf("fanin: %v", err)
		}
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{1}}); err != nil {
			t.Errorf("rotate after fanin: %v", err)
		}
	})
}

// TestDiscCountBounds: a SEPARATE or COLLECT of a negative count, or of more
// discs than an array holds, is a malformed command, from the line protocol
// or as a Command. It takes no time and moves no counter; the bounds
// themselves are accepted.
func TestDiscCountBounds(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		refuse := func(what string, exec func() (Sensors, error)) {
			start := p.Now()
			if _, err := exec(); !errors.Is(err, ErrBadCommand) {
				t.Errorf("%s = %v, want ErrBadCommand", what, err)
			}
			if d := p.Now() - start; d != 0 {
				t.Errorf("%s took %v", what, d)
			}
		}
		for _, line := range []string{"SEPARATE -5", "SEPARATE 13", "COLLECT -1", "COLLECT 99999"} {
			refuse(fmt.Sprintf("ExecLine(%q)", line), func() (Sensors, error) { return c.ExecLine(p, line) })
		}
		for _, cmd := range []Command{
			{Op: OpCollect, Args: []int{-5}},
			{Op: OpCollect, Args: []int{ArrayDiscs + 1}},
			{Op: OpSeparate, Args: []int{-5}},
		} {
			refuse(fmt.Sprintf("Exec(%q)", cmd.Encode()), func() (Sensors, error) { return c.Exec(p, cmd) })
		}
		if c.CollectOps != 0 || c.SeparateOps != 0 {
			t.Errorf("refused commands moved the counters: collect=%d separate=%d", c.CollectOps, c.SeparateOps)
		}
		if s := c.Sensors(); s.ArmCarrying {
			t.Error("a refused COLLECT left the arm carrying")
		}
		for _, line := range []string{"ARMTOP", "COLLECT 12", "SEPARATE 0", "COLLECT 0", "SEPARATE 12"} {
			if _, err := c.ExecLine(p, line); err != nil {
				t.Errorf("ExecLine(%q): %v", line, err)
			}
		}
		if c.CollectOps != ArrayDiscs || c.SeparateOps != ArrayDiscs {
			t.Errorf("bounds moved collect=%d separate=%d, want %d each", c.CollectOps, c.SeparateOps, ArrayDiscs)
		}
	})
}

func TestSeparateCollectCycle(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		// Pick up an array first.
		mustExec(t, c, p, Command{Op: OpFanOut})
		mustExec(t, c, p, Command{Op: OpFetch})
		mustExec(t, c, p, Command{Op: OpFanIn})
		mustExec(t, c, p, Command{Op: OpArmTop})
		start := p.Now()
		mustExec(t, c, p, Command{Op: OpSeparate, Args: []int{12}})
		// 12 discs at 61/12 s each = 61 s (§3.2: "takes almost 61 seconds").
		if d := p.Now() - start; d < 60*time.Second || d > 62*time.Second {
			t.Errorf("separate 12 took %v, want ~61s", d)
		}
		if c.Sensors().ArmCarrying {
			t.Error("arm still carrying after separate")
		}
		start = p.Now()
		mustExec(t, c, p, Command{Op: OpCollect, Args: []int{12}})
		// §3.2: "fetching discs one by one from drives takes 74 seconds".
		if d := p.Now() - start; d < 73*time.Second || d > 75*time.Second {
			t.Errorf("collect 12 took %v, want ~74s", d)
		}
		if !c.Sensors().ArmCarrying {
			t.Error("arm not carrying after collect")
		}
	})
}

func TestSeparateRequiresArmAtopDrives(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		mustExec(t, c, p, Command{Op: OpFanOut})
		mustExec(t, c, p, Command{Op: OpFetch})
		mustExec(t, c, p, Command{Op: OpFanIn})
		mustExec(t, c, p, Command{Op: OpArm, Args: []int{10}})
		if _, err := c.Exec(p, Command{Op: OpSeparate, Args: []int{12}}); !errors.Is(err, ErrPrecondition) {
			t.Errorf("separate away from drives: %v", err)
		}
	})
}

func TestMotorFaultInjection(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		c.InjectFault()
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{1}}); !errors.Is(err, ErrMotorFault) {
			t.Errorf("faulted rotate: %v", err)
		}
		// Fault is one-shot; retry succeeds (feedback loop recovery).
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{1}}); err != nil {
			t.Errorf("retry after fault: %v", err)
		}
	})
}

func TestArmAndRollerMotorsRunInParallel(t *testing.T) {
	// §3.2: scheduling roller and arm in parallel reduces conveying delay.
	env := sim.NewEnv()
	c := newCtl(env)
	done := 0
	env.Go("arm", func(p *sim.Proc) {
		if _, err := c.Exec(p, Command{Op: OpArm, Args: []int{0}}); err != nil {
			t.Errorf("arm: %v", err)
		}
		done++
	})
	env.Go("roller", func(p *sim.Proc) {
		if _, err := c.Exec(p, Command{Op: OpRotate, Args: []int{3}}); err != nil {
			t.Errorf("rotate: %v", err)
		}
		done++
	})
	env.Run()
	if done != 2 {
		t.Fatal("not all motions completed")
	}
	// Arm full descent ~5.3s dominates; rotation (1s) overlapped.
	if env.Now() > 5500*time.Millisecond {
		t.Errorf("parallel motions took %v, want ~5.3s (overlapped)", env.Now())
	}
}

func TestExecLine(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := c.ExecLine(p, "ROTATE 2"); err != nil {
			t.Errorf("ExecLine: %v", err)
		}
		if c.Sensors().RollerSlot != 2 {
			t.Errorf("slot = %d", c.Sensors().RollerSlot)
		}
		if _, err := c.ExecLine(p, "GARBAGE 1"); !errors.Is(err, ErrBadCommand) {
			t.Errorf("garbage line: %v", err)
		}
	})
}

func TestStatusIsFree(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	inSim(t, env, func(p *sim.Proc) {
		start := p.Now()
		s, err := c.Exec(p, Command{Op: OpStatus})
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if p.Now() != start {
			t.Error("STATUS consumed virtual time")
		}
		if s.ArmLayer != 85 || s.ArmCarrying || s.TrayOut {
			t.Errorf("initial sensors = %+v", s)
		}
	})
}

// Property: slotDistance is symmetric, bounded by n/2, and zero iff equal.
func TestPropertySlotDistance(t *testing.T) {
	f := func(a, b uint8) bool {
		n := 6
		x, y := int(a)%n, int(b)%n
		d := slotDistance(x, y, n)
		if d != slotDistance(y, x, n) {
			return false
		}
		if d > n/2 {
			return false
		}
		return (d == 0) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arm travel time is monotone in distance and bounded by base+stroke.
func TestPropertyArmTravelMonotone(t *testing.T) {
	env := sim.NewEnv()
	c := newCtl(env)
	f := func(a, b uint8) bool {
		x, y := int(a)%85, int(b)%85
		d1 := c.armTravel(x, y)
		d2 := c.armTravel(x, x)
		if d1 < d2 {
			return false
		}
		max := DefaultTiming().ArmBaseEmpty + DefaultTiming().ArmFullStroke
		return d1 <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t *testing.T, c *Controller, p *sim.Proc, cmd Command) {
	t.Helper()
	if _, err := c.Exec(p, cmd); err != nil {
		t.Fatalf("%s: %v", cmd.Op, err)
	}
}
