package plc

import (
	"reflect"
	"strings"
	"testing"

	"ros/internal/sim"
)

// FuzzExecLine feeds the line protocol to a fresh controller, one instruction
// per input line. Properties: nothing panics; a line Decode accepts
// re-encodes to a line that decodes to the same command; and no instruction,
// accepted or refused, moves the clock backwards, takes longer than the
// longest motion (collecting a full array), or makes a counter negative.
func FuzzExecLine(f *testing.F) {
	for _, c := range []Command{
		{Op: OpRotate, Args: []int{3}},
		{Op: OpArm, Args: []int{84}},
		{Op: OpArmTop},
		{Op: OpFanOut},
		{Op: OpFanIn},
		{Op: OpFetch},
		{Op: OpPlace},
		{Op: OpSeparate, Args: []int{ArrayDiscs}},
		{Op: OpCollect, Args: []int{ArrayDiscs}},
		{Op: OpStatus},
	} {
		f.Add(c.Encode())
	}
	for _, s := range []string{
		// A load, then an unload, of the top tray in slot 2.
		"ROTATE 2\nARM 84\nFANOUT\nFETCH\nFANIN\nARMTOP\nSEPARATE 12",
		"COLLECT 12\nROTATE 2\nFANOUT\nARM 84\nPLACE\nFANIN\nARMTOP",
		// Malformed lines.
		"", "   ", "BOGUS", "rotate 1", "ROTATE", "ROTATE x", "ROTATE 1 2",
		"FETCH 1", "SEPARATE", "ARM +5", "ARM -0", "ROTATE 9223372036854775808",
		// Out-of-range arguments.
		"ROTATE -1", "ROTATE 6", "ARM -1", "ARM 85",
		"SEPARATE -5", "SEPARATE 13", "COLLECT -5", "COLLECT 99999",
		"COLLECT 9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		lines := strings.Split(input, "\n")
		for _, line := range lines {
			cmd, err := Decode(line)
			if err != nil {
				continue
			}
			again, err := Decode(cmd.Encode())
			if err != nil || !reflect.DeepEqual(again, cmd) {
				t.Fatalf("Decode(%q) = %+v, re-encoded %q decodes to %+v, %v",
					line, cmd, cmd.Encode(), again, err)
			}
		}
		env := sim.NewEnv()
		c := newCtl(env)
		longest := ArrayDiscs * c.timing.CollectPerDisc
		env.Go("sc", func(p *sim.Proc) {
			for _, line := range lines {
				before := p.Now()
				_, err := c.ExecLine(p, line)
				if p.Now() < before {
					t.Errorf("%q moved the clock back from %v to %v", line, before, p.Now())
				}
				if d := p.Now() - before; d > longest {
					t.Errorf("%q took %v, longer than collecting a full array (%v)", line, d, longest)
				}
				if _, derr := Decode(line); derr != nil && err == nil {
					t.Errorf("%q executed although Decode refuses it: %v", line, derr)
				}
				if c.RotateTime < 0 || c.ArmTime < 0 || c.SeparateOps < 0 || c.CollectOps < 0 || c.Instructions < 0 {
					t.Errorf("%q left a negative counter: rotate=%v arm=%v separate=%d collect=%d instructions=%d",
						line, c.RotateTime, c.ArmTime, c.SeparateOps, c.CollectOps, c.Instructions)
				}
			}
		})
		env.Run()
	})
}
