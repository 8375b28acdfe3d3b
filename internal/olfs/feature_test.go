package olfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ros/internal/image"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
)

// burnOneTray writes and burns a small dataset, returning its tray.
func burnOneTray(t *testing.T, tb *testbed, p *sim.Proc, seed byte) rack.TrayID {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := tb.fs.WriteFile(p, fmt.Sprintf("/scr%d/f%d", seed, i), pat(300*1024, seed+byte(i))); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if err := tb.fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	c, err := tb.fs.FlushAndBurn(p)
	if err != nil {
		t.Fatalf("FlushAndBurn: %v", err)
	}
	if _, err := c.Wait(p); err != nil {
		t.Fatalf("burn: %v", err)
	}
	trays := tb.fs.Cat.Trays(image.DAUsed)
	return trays[len(trays)-1]
}

func TestScrubAndRepairSectorError(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	})
	tb.run(t, func(p *sim.Proc) {
		tray := burnOneTray(t, tb, p, 1)
		// Inject a latent sector error on a data disc, in its tray or still
		// in the drives that burned it.
		tb.lib.Disc(tray, 0).CorruptSector(8192)

		rep, err := tb.fs.ScrubAndRepair(p, tray)
		if err != nil {
			t.Fatalf("ScrubAndRepair: %v", err)
		}
		if len(rep.Scrub.BadStrips) == 0 {
			t.Fatal("scrub missed the injected sector error")
		}
		if len(rep.BadDiscs) == 0 || rep.BadDiscs[0] != 0 {
			t.Fatalf("bad discs = %v, want [0]", rep.BadDiscs)
		}
		if len(rep.Recovered) == 0 {
			t.Fatal("no image recovered")
		}
		if rep.ReBurn != nil {
			if _, err := rep.ReBurn.Wait(p); err != nil {
				t.Fatalf("re-burn: %v", err)
			}
		}
		// The file whose image sat on the damaged disc reads back intact.
		got, err := tb.fs.ReadFile(p, "/scr1/f0")
		if err != nil {
			t.Fatalf("read after repair: %v", err)
		}
		if !bytes.Equal(got, pat(300*1024, 1)) {
			t.Error("repaired data mismatch")
		}
	})
	if tb.fs.m.repairs.Value() == 0 {
		t.Error("olfs.repairs is zero")
	}
}

func TestScrubberDaemonRepairsInBackground(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	})
	tb.run(t, func(p *sim.Proc) {
		tray := burnOneTray(t, tb, p, 5)
		// Put the array back in the roller so the scrubber fetches it.
		for gi, g := range tb.lib.Groups {
			if g.Source != nil && *g.Source == tray {
				if err := tb.fs.unloadGroup(p, gi); err != nil {
					t.Fatalf("unload: %v", err)
				}
			}
		}
		tr, _ := tb.lib.Tray(tray)
		tr.Discs[1].CorruptSector(4096)

		stop := tb.fs.StartScrubber(10 * time.Minute)
		defer stop()
		// Let a few scrub cycles pass.
		p.Sleep(90 * time.Minute)
		if tb.fs.m.scrubs.Value() == 0 {
			t.Fatal("scrubber never ran")
		}
	})
}

func TestMVSnapshotDaemon(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/snap/f", pat(4096, 9)); err != nil {
			t.Fatal(err)
		}
		stop := tb.fs.StartMVSnapshots(time.Hour)
		defer stop()
		p.Sleep(3*time.Hour + time.Minute)
		if tb.fs.m.mvSnapshots.Value() < 2 {
			t.Fatalf("olfs.mv_snapshots = %d after 3h with 1h interval", tb.fs.m.mvSnapshots.Value())
		}
		// Snapshot files exist in the namespace.
		des, err := tb.fs.MV.ReadDir(p, MVSnapshotDir)
		if err != nil || len(des) == 0 {
			t.Errorf("snapshot dir: %v entries, err %v", len(des), err)
		}
	})
}

// TestMVSnapshotNamesArePerFS: snapshot names depend only on the FS's own
// history. Two identical filesystems in one process name their snapshots
// identically, and a filesystem reopened from its checkpoint continues its
// sequence instead of reusing a name.
func TestMVSnapshotNamesArePerFS(t *testing.T) {
	snapshots := func(tb *testbed, p *sim.Proc, n int) []int {
		var seqs []int
		for i := 0; i < n; i++ {
			seq, err := tb.fs.BurnMVSnapshot(p)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
		return seqs
	}
	var first, second []int
	for _, seqs := range []*[]int{&first, &second} {
		tb := newBed(t, func(c *Config) { c.AutoBurn = false })
		tb.run(t, func(p *sim.Proc) {
			if err := tb.fs.WriteFile(p, "/snap/f", pat(4096, 9)); err != nil {
				t.Fatal(err)
			}
			*seqs = snapshots(tb, p, 2)
		})
	}
	if fmt.Sprint(first) != "[1 2]" || fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("two identical filesystems numbered their snapshots %v and %v, want [1 2] both", first, second)
	}

	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	var after []int
	tb.run(t, func(p *sim.Proc) {
		snapshots(tb, p, 3)
		if err := tb.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		tb.fs.Stop()
		fs2, err := Reopen(tb.env, p, tb.fs.Config(), tb.lib, tb.fs.mvStore, tb.buf)
		if err != nil {
			t.Fatal(err)
		}
		tb.fs = fs2
		after = snapshots(tb, p, 1)
	})
	if fmt.Sprint(after) != "[4]" {
		t.Fatalf("the reopened filesystem numbered its next snapshot %v, want [4]", after)
	}
	if _, ok := tb.fs.MV.Lookup(fmt.Sprintf("%s/snap-%06d/part-0000", MVSnapshotDir, 4)); !ok {
		t.Fatal("snapshot 4 is not in the namespace")
	}
}

func TestBurnFailureRetriesOnFreshTray(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.BurnStagger = time.Second
	})
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/bf/a", pat(100*1024, 1)); err != nil {
			t.Fatal(err)
		}
		if err := tb.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if err := tb.fs.WriteFile(p, "/bf/b", pat(100*1024, 2)); err != nil {
			t.Fatal(err)
		}
		// Sabotage the first tray the burn will pick: pre-burn garbage onto
		// one blank disc so the write-all-once burn fails (WORM violation).
		tray, ok := tb.fs.Cat.FindEmptyTray(tb.lib)
		if !ok {
			t.Fatal("no empty tray")
		}
		tr, _ := tb.lib.Tray(tray)
		sab := tr.Discs[0]
		preburnGarbage(t, tb, p, sab)

		c, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn should have retried and succeeded: %v", err)
		}
		// The sabotaged tray is marked Failed; a different tray is Used.
		if tb.fs.Cat.DAState(tray) != image.DAFailed {
			t.Errorf("sabotaged tray state = %v, want Failed", tb.fs.Cat.DAState(tray))
		}
		if len(tb.fs.Cat.Trays(image.DAUsed)) == 0 {
			t.Error("no tray Used after retry")
		}
		// Data remains readable.
		if _, err := tb.fs.ReadFile(p, "/bf/a"); err != nil {
			t.Errorf("read after retry: %v", err)
		}
	})
}

// preburnGarbage burns a tiny track onto a disc outside OLFS's control, so
// the disc is no longer blank and OLFS's write-all-once burn rejects it.
func preburnGarbage(t *testing.T, tb *testbed, p *sim.Proc, d *optical.Disc) {
	t.Helper()
	dr := optical.NewDrive(tb.env, "saboteur", nil)
	if err := dr.ArmLoad(d); err != nil {
		t.Fatalf("sabotage load: %v", err)
	}
	if _, err := dr.Burn(p, nil, optical.BurnOptions{LogicalBytes: 1 << 20}); err != nil {
		t.Fatalf("sabotage burn: %v", err)
	}
	if _, err := dr.ArmEject(); err != nil {
		t.Fatalf("sabotage eject: %v", err)
	}
}
