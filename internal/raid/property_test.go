package raid

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ros/internal/sim"
)

// Property sweep for the erasure code: every combination of device loss and
// sector corruption up to the level's correction bound must decode
// byte-for-byte, and every combination beyond the bound must be detected
// (ErrTooManyFailed), never silently mis-decoded.

// faultMode is one way a device can go bad mid-life.
type faultMode int

const (
	modeFail    faultMode = iota // whole-device loss (controller death)
	modeCorrupt                  // sector corruption (read error on stripe 0)
)

func (m faultMode) String() string {
	if m == modeFail {
		return "fail"
	}
	return "corrupt"
}

// sweepCase damages the given devices and checks the decode property.
type sweepCase struct {
	level Level
	n     int
	devs  []int       // devices to damage
	modes []faultMode // parallel to devs
}

func (c sweepCase) name() string {
	s := fmt.Sprintf("%s-%ddevs", c.level, c.n)
	for i, d := range c.devs {
		s += fmt.Sprintf("-%s%d", c.modes[i], d)
	}
	return s
}

// runSweepCase writes a multi-rotation pattern, applies the damage, and
// verifies decode round-trips (within bound) or fails detected (beyond).
func runSweepCase(t *testing.T, c sweepCase, withinBound bool) {
	t.Helper()
	const su = 4 << 10
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	a, disks := newArray(t, env, c.level, c.n, 256<<10, su)
	// Enough rotations that every device serves data and parity roles, plus
	// a partial trailing stripe to cover the short-read path.
	data := patterned(su*c.n*6+su/2, byte(c.n))
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, data, 0); err != nil {
			t.Fatalf("%s: write: %v", c.name(), err)
		}
		for i, d := range c.devs {
			switch c.modes[i] {
			case modeFail:
				disks[d].Fail()
			case modeCorrupt:
				// Stripe 0 lives at device offset 0 on every device, so
				// corrupting sector 0 on k devices injects k losses into the
				// same stripe.
				disks[d].CorruptSector(0)
			}
		}
		got := make([]byte, len(data))
		err := a.ReadAt(p, got, 0)
		if withinBound {
			if err != nil {
				t.Fatalf("%s: decode within bound failed: %v", c.name(), err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: decode within bound returned wrong data", c.name())
			}
			return
		}
		if err == nil {
			if bytes.Equal(got, data) {
				t.Fatalf("%s: beyond-bound read silently succeeded with correct data (losses not observed?)", c.name())
			}
			t.Fatalf("%s: beyond-bound corruption MIS-DECODED: no error, wrong data", c.name())
		}
		if !errors.Is(err, ErrTooManyFailed) {
			t.Fatalf("%s: beyond-bound error = %v, want ErrTooManyFailed", c.name(), err)
		}
	})
}

// modeCombos enumerates all damage-mode assignments for k devices.
func modeCombos(k int) [][]faultMode {
	if k == 0 {
		return [][]faultMode{{}}
	}
	var out [][]faultMode
	for _, rest := range modeCombos(k - 1) {
		for _, m := range []faultMode{modeFail, modeCorrupt} {
			out = append(out, append(append([]faultMode{}, rest...), m))
		}
	}
	return out
}

func TestRAID5SweepWithinBound(t *testing.T) {
	const n = 5
	for d := 0; d < n; d++ {
		for _, m := range []faultMode{modeFail, modeCorrupt} {
			c := sweepCase{level: RAID5, n: n, devs: []int{d}, modes: []faultMode{m}}
			t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, true) })
		}
	}
}

func TestRAID5SweepBeyondBound(t *testing.T) {
	const n = 5
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, modes := range modeCombos(2) {
				c := sweepCase{level: RAID5, n: n, devs: []int{i, j}, modes: modes}
				t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, false) })
			}
		}
	}
}

func TestRAID6SweepWithinBound(t *testing.T) {
	const n = 6
	// Single losses.
	for d := 0; d < n; d++ {
		for _, m := range []faultMode{modeFail, modeCorrupt} {
			c := sweepCase{level: RAID6, n: n, devs: []int{d}, modes: []faultMode{m}}
			t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, true) })
		}
	}
	// Every pair, every fail/corrupt combination: the two-loss P+Q solve.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, modes := range modeCombos(2) {
				c := sweepCase{level: RAID6, n: n, devs: []int{i, j}, modes: modes}
				t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, true) })
			}
		}
	}
}

func TestRAID6SweepBeyondBound(t *testing.T) {
	const n = 6
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				c := sweepCase{
					level: RAID6, n: n,
					devs:  []int{i, j, k},
					modes: []faultMode{modeFail, modeCorrupt, modeFail},
				}
				t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, false) })
			}
		}
	}
}
