package olfs

import (
	"fmt"
	"testing"
	"time"

	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
)

// writeBurnSetTB writes 4 x 400 KB files (two 1 MB buckets -> 2 data images +
// 1 parity) and returns the burn completion.
func writeBurnSetTB(t *testing.T, tb *testbed, p *sim.Proc) *sim.Completion[error] {
	t.Helper()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("/arch/f%02d", i)
		if err := tb.fs.WriteFile(p, name, pat(400*1024, byte(i+1))); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	c, err := tb.fs.FlushAndBurn(p)
	if err != nil {
		t.Fatalf("FlushAndBurn: %v", err)
	}
	return c
}

// burningGroupTB returns the drive group currently burning, if any.
func burningGroupTB(tb *testbed) *rack.DriveGroup {
	for _, g := range tb.lib.Groups {
		if g.AnyBurning() {
			return g
		}
	}
	return nil
}

// TestTraceSpanBalanceMixedWorkload drives every traced entry point —
// writes, an interrupted-then-resumed burn (which requeues the task), a cold
// read through the fetch path, and a scrub — and asserts the span ledger
// balances: zero open spans at quiescence, no snapshot warnings, and the
// retried burn trace captured with Retries > 0 despite aggressive sampling.
func TestTraceSpanBalanceMixedWorkload(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true // force the read through the mechanical path
		// Aggressive tail sampling: clean traces are mostly dropped, so the
		// retried burn only survives via the always-capture-faulty rule.
		c.Trace = obs.TracerConfig{SampleEvery: 1000}
	})
	tb.run(t, func(p *sim.Proc) {
		c := writeBurnSetTB(t, tb, p)

		// Interrupt drive 0 mid-burn: the task requeues and resumes (§4.8),
		// marking the trace as retried.
		tb.env.Go("interrupter", func(ip *sim.Proc) {
			for i := 0; i < 10000; i++ {
				if g := burningGroupTB(tb); g != nil {
					ip.Sleep(50 * time.Second)
					if g.Drives[0].State() == optical.StateBurning {
						g.Drives[0].InterruptBurn()
					}
					return
				}
				ip.Sleep(time.Second)
			}
		})
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn after interrupt+resume: %v", err)
		}

		// Cold read: fetch, arm, tray load, spin-up, read.
		if _, err := tb.fs.ReadFile(p, "/arch/f00"); err != nil {
			t.Fatalf("cold read: %v", err)
		}

		// Scrub a burned tray (verify spans, nested scrub ops).
		trays := tb.fs.Cat.Trays(image.DAUsed)
		if len(trays) == 0 {
			t.Fatal("no burned trays to scrub")
		}
		if _, err := tb.fs.ScrubAndRepair(p, trays[0]); err != nil {
			t.Fatalf("scrub: %v", err)
		}
		p.Sleep(time.Hour) // let trays unload and the pipeline drain
	})

	if open := tb.fs.Obs().OpenSpans(); open != 0 {
		t.Errorf("open spans at quiescence = %d, want 0", open)
	}
	snap := tb.fs.Obs().Snapshot()
	if len(snap.Warnings) != 0 {
		t.Errorf("snapshot warnings = %v, want none", snap.Warnings)
	}
	tr := tb.fs.Tracer()
	if tr.Active() != 0 {
		t.Errorf("active traces at quiescence = %d, want 0", tr.Active())
	}
	var burn *obs.Trace
	for _, trc := range tr.Traces() {
		if trc.Name == "olfs.burn" && trc.Retries > 0 {
			burn = trc
		}
	}
	if burn == nil {
		t.Fatal("no retried olfs.burn trace captured (tail sampling must keep faulty traces)")
	}
	if burn.Class != "burn" {
		t.Errorf("burn trace class = %q, want burn", burn.Class)
	}
	// The resumed burn trace carries the whole mechanical story.
	names := map[string]bool{}
	for _, sp := range burn.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"sched.wait", "rack.tray_load", "optical.burn"} {
		if !names[want] {
			t.Errorf("retried burn trace is missing span %s", want)
		}
	}
}
