package olfs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/faultinject/testkit"
	"ros/internal/image"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
)

// writeBurnSet writes 4 x 400 KB files (two 1 MB buckets -> 2 data images +
// 1 parity) and returns the burn completion.
func writeBurnSet(t *testing.T, bed *testkit.Bed, p *sim.Proc) *sim.Completion[error] {
	t.Helper()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("/arch/f%02d", i)
		if err := bed.FS.WriteFile(p, name, testkit.Pat(400*1024, byte(i+1))); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	c, err := bed.FS.FlushAndBurn(p)
	if err != nil {
		t.Fatalf("FlushAndBurn: %v", err)
	}
	return c
}

// burningGroup returns the drive group currently burning, if any.
func burningGroup(bed *testkit.Bed) *rack.DriveGroup {
	for _, g := range bed.Lib.Groups {
		if g.AnyBurning() {
			return g
		}
	}
	return nil
}

// interruptFirstBurn starts a process that waits for the first drive group to
// start burning and interrupts its drive 0 fifty seconds later — mid-track,
// while the other discs run to completion.
func interruptFirstBurn(bed *testkit.Bed) {
	bed.Env.Go("interrupter", func(ip *sim.Proc) {
		for i := 0; i < 10000; i++ {
			if g := burningGroup(bed); g != nil {
				ip.Sleep(50 * time.Second)
				if g.Drives[0].State() == optical.StateBurning {
					g.Drives[0].InterruptBurn()
				}
				return
			}
			ip.Sleep(time.Second)
		}
	})
}

// failedTrays counts catalog trays in the Failed state.
func failedTrays(bed *testkit.Bed) int {
	n := 0
	for _, st := range bed.FS.Cat.DA {
		if st == image.DAFailed {
			n++
		}
	}
	return n
}

// TestBurnResumeAfterInterrupt is the regression test for the §4.8
// interrupt-resume path. Before the fix, every resume requested
// discCap-pr.logical logical bytes in append mode, overshooting the disc by
// exactly TrackMetaZone: the resume always died with ErrDiscFull, the tray
// was silently marked Failed, and the one-shot fresh-tray retry masked the
// bug. Post-fix the resumed disc carries two tracks and no tray fails.
func TestBurnResumeAfterInterrupt(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: func(c *olfs.Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true // force the post-resume read to hit the disc
	}})
	var burnErr error
	var data0 = testkit.Pat(400*1024, 1)
	bed.Run(t, func(p *sim.Proc) {
		c := writeBurnSet(t, bed, p)

		// Interrupt drive 0 fifty seconds into its burn; the other two discs
		// run to completion so the resume only has position 0 left.
		interruptFirstBurn(bed)

		_, burnErr = c.Wait(p)
		if burnErr != nil {
			t.Fatalf("burn after interrupt+resume: %v", burnErr)
		}
		// Read back the image burned onto the interrupted-then-resumed disc
		// (position 0 holds the first bucket) through the mechanical path.
		got, err := bed.FS.ReadFile(p, "/arch/f00")
		if err != nil {
			t.Fatalf("ReadFile from resumed disc: %v", err)
		}
		if !bytes.Equal(got, data0) {
			t.Error("data on resumed disc corrupt")
		}
	})

	if count(bed.FS, "olfs.interrupted_burns") != 1 || count(bed.FS, "olfs.burn_resumes") != 1 {
		t.Errorf("interrupted=%d resumes=%d, want 1/1", count(bed.FS, "olfs.interrupted_burns"), count(bed.FS, "olfs.burn_resumes"))
	}
	if n := failedTrays(bed); n != 0 {
		t.Errorf("failed trays = %d, want 0 (resume must not hard-fail)", n)
	}
	// The resumed disc must hold two tracks: the interrupted one plus the
	// append-mode continuation.
	twoTrack := 0
	for l := 0; l < rack.LayersPerRoller; l++ {
		for s := 0; s < rack.SlotsPerLayer; s++ {
			for _, d := range bed.Lib.Rollers[0].Tray(l, s).Discs {
				if len(d.Tracks()) == 2 {
					twoTrack++
				}
			}
		}
	}
	for _, g := range bed.Lib.Groups {
		for _, d := range g.Drives {
			if d.Disc() != nil && len(d.Disc().Tracks()) == 2 {
				twoTrack++
			}
		}
	}
	if twoTrack != 1 {
		t.Errorf("two-track discs = %d, want exactly 1 (the resumed disc)", twoTrack)
	}
	// Span open/close balance across the interrupt/requeue cycle.
	if open := bed.FS.Obs().OpenSpans(); open != 0 {
		t.Errorf("open spans = %d, want 0", open)
	}
}

// TestBurnInterruptThenHardFailure covers the satellite bugfix: a run that is
// both interrupted and hard-fails (here: the unload back to the source tray
// finds it occupied) must still count the interrupt, must not leak resume
// bookkeeping into the fresh-tray retry, and the retry must succeed.
func TestBurnInterruptThenHardFailure(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	var burnErr error
	bed.Run(t, func(p *sim.Proc) {
		c := writeBurnSet(t, bed, p)

		bed.Env.Go("saboteur", func(ip *sim.Proc) {
			for i := 0; i < 10000; i++ {
				g := burningGroup(bed)
				if g == nil {
					ip.Sleep(time.Second)
					continue
				}
				burning := 0
				for _, d := range g.Drives {
					if d.State() == optical.StateBurning {
						burning++
					}
				}
				if burning < 3 {
					ip.Sleep(time.Second)
					continue
				}
				// Occupy the source tray so the unload hard-fails, then
				// interrupt every burning drive in the same run.
				tr, err := bed.Lib.Tray(*g.Source)
				if err != nil {
					t.Errorf("source tray: %v", err)
					return
				}
				tr.Discs = append(tr.Discs, optical.NewDisc("intruder", optical.Media25))
				for _, d := range g.Drives {
					if d.State() == optical.StateBurning {
						d.InterruptBurn()
					}
				}
				return
			}
		})

		_, burnErr = c.Wait(p)
	})
	if burnErr != nil {
		t.Fatalf("fresh-tray retry should have succeeded: %v", burnErr)
	}
	// Pre-fix the interrupted+failed run counted neither interrupt nor
	// resume; the interrupt really happened and must show up.
	if count(bed.FS, "olfs.interrupted_burns") != 1 {
		t.Errorf("olfs.interrupted_burns = %d, want 1 (interrupt-then-fail must count)", count(bed.FS, "olfs.interrupted_burns"))
	}
	// No resume ever ran: the retry restarted from scratch on a new tray.
	if count(bed.FS, "olfs.burn_resumes") != 0 {
		t.Errorf("olfs.burn_resumes = %d, want 0 (fresh-tray retry is not a resume)", count(bed.FS, "olfs.burn_resumes"))
	}
	if n := failedTrays(bed); n != 1 {
		t.Errorf("failed trays = %d, want 1 (the sabotaged one)", n)
	}
	if open := bed.FS.Obs().OpenSpans(); open != 0 {
		t.Errorf("open spans = %d, want 0", open)
	}
}

// TestBurnResumeRunHardFailure: an interrupt (run 1), then a hard failure
// during the resume (run 2: a burn error whose unload also fails), then a
// fresh-tray retry (run 3). The stale t.resumed flag used to survive the
// hard-failure reset, so run 3 was miscounted as another resume; post-fix
// BurnResumes stays exactly 1.
func TestBurnResumeRunHardFailure(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	var burnErr error
	bed.Run(t, func(p *sim.Proc) {
		c := writeBurnSet(t, bed, p)

		// Phase 1: interrupt drive 0 mid-burn.
		interruptFirstBurn(bed)
		// Phase 2: once the resume run is burning, fail its burn at the next
		// chunk boundary and occupy its source tray, so the failed run's
		// unload fails too and strands the array in the drives.
		bed.Env.Go("saboteur", func(ip *sim.Proc) {
			for i := 0; i < 20000; i++ {
				g := burningGroup(bed)
				if count(bed.FS, "olfs.burn_resumes") >= 1 && g != nil {
					tr, err := bed.Lib.Tray(*g.Source)
					if err != nil {
						t.Errorf("source tray: %v", err)
						return
					}
					tr.Discs = append(tr.Discs, optical.NewDisc("intruder2", optical.Media25))
					for _, d := range g.Drives {
						if d.State() == optical.StateBurning {
							bed.Plane.Arm(faultinject.Rule{Point: faultinject.PointOpticalBurn, Match: d.ID, Count: 1})
						}
					}
					return
				}
				ip.Sleep(time.Second)
			}
		})

		_, burnErr = c.Wait(p)
	})
	if burnErr != nil {
		t.Fatalf("retry after failed resume should have succeeded: %v", burnErr)
	}
	if count(bed.FS, "olfs.interrupted_burns") != 1 {
		t.Errorf("olfs.interrupted_burns = %d, want 1", count(bed.FS, "olfs.interrupted_burns"))
	}
	if count(bed.FS, "olfs.burn_resumes") != 1 {
		t.Errorf("olfs.burn_resumes = %d, want 1 (stale resumed flag must not leak into the retry)", count(bed.FS, "olfs.burn_resumes"))
	}
	if n := failedTrays(bed); n != 1 {
		t.Errorf("failed trays = %d, want 1", n)
	}
	// The resume opened its append-mode track before the burn failed: the
	// continuation left a two-track disc stranded in the failed group's
	// drives (post-fix; pre-fix the resume burn died instantly with
	// ErrDiscFull and the disc kept a single partial track).
	twoTrack := 0
	for _, g := range bed.Lib.Groups {
		for _, d := range g.Drives {
			if d.Disc() != nil && len(d.Disc().Tracks()) == 2 {
				twoTrack++
			}
		}
	}
	if twoTrack != 1 {
		t.Errorf("two-track drive-resident discs = %d, want 1", twoTrack)
	}
	if open := bed.FS.Obs().OpenSpans(); open != 0 {
		t.Errorf("open spans = %d, want 0", open)
	}
}

// usedWithoutImages lists catalog trays that are Used yet hold no placed
// image — the footprint of a blank array leaked by an abandoned burn.
func usedWithoutImages(bed *testkit.Bed) []string {
	var out []string
	for l := 0; l < rack.LayersPerRoller; l++ {
		for s := 0; s < rack.SlotsPerLayer; s++ {
			id := rack.TrayID{Layer: l, Slot: s}
			if bed.FS.Cat.DAState(id) == image.DAUsed && len(bed.FS.Cat.ImagesOnTray(id)) == 0 {
				out = append(out, id.String())
			}
		}
	}
	return out
}

// TestAbandonedBurnReleasesTray: a burn reserves its blank tray as Used
// before it claims a drive group. When the tray's load then fails the task is
// abandoned, and the reservation used to stay behind for ever: a whole blank
// array lost to FindEmptyTray, and a tray the scrubber revisits every pass.
// The load fails before any disc moves, so the tray must go back to Empty and
// the next burn must reuse it.
func TestAbandonedBurnReleasesTray(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Faults: "rack.tray.load:once", Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		reserved, ok := bed.FS.Cat.FindEmptyTray(bed.Lib)
		if !ok {
			t.Fatal("no blank tray")
		}
		c := writeBurnSet(t, bed, p)
		if _, err := c.Wait(p); err == nil {
			t.Fatal("burn whose tray load failed reported success")
		}
		if leaked := usedWithoutImages(bed); len(leaked) != 0 {
			t.Errorf("trays left Used with no images after the abandoned burn: %v", leaked)
		}
		if n := len(bed.FS.Buckets.FilledUnburned()); n != 2 {
			t.Errorf("filled unburned images = %d, want 2 (back in the buffer)", n)
		}
		c, err := bed.FS.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("second FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("second burn: %v", err)
		}
		if n := len(bed.FS.Cat.ImagesOnTray(reserved)); n != 3 {
			t.Errorf("images on the released tray %v = %d, want 3 (2 data + 1 parity)", reserved, n)
		}
	})
	if n := failedTrays(bed); n != 0 {
		t.Errorf("failed trays = %d, want 0 (nothing was burned)", n)
	}
}

// TestAbandonedResumeFailsTray: the same abandon path, but the load that
// fails is the reload of an interrupted burn. That tray carries partial
// tracks, so it must end Failed — neither leaked as Used nor handed out again
// as blank.
func TestAbandonedResumeFailsTray(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Faults: "rack.tray.load:once,after=1", Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		c := writeBurnSet(t, bed, p)
		interruptFirstBurn(bed)
		if _, err := c.Wait(p); err == nil {
			t.Fatal("burn whose resume reload failed reported success")
		}
	})
	if count(bed.FS, "olfs.interrupted_burns") != 1 || count(bed.FS, "olfs.burn_resumes") != 1 {
		t.Errorf("interrupted=%d resumes=%d, want 1/1", count(bed.FS, "olfs.interrupted_burns"), count(bed.FS, "olfs.burn_resumes"))
	}
	if leaked := usedWithoutImages(bed); len(leaked) != 0 {
		t.Errorf("trays left Used with no images: %v", leaked)
	}
	if n := failedTrays(bed); n != 1 {
		t.Errorf("failed trays = %d, want 1 (the partially burned one)", n)
	}
	if n := len(bed.FS.Buckets.FilledUnburned()); n != 2 {
		t.Errorf("filled unburned images = %d, want 2", n)
	}
}
