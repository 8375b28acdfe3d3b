package olfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"ros/internal/faultinject/testkit"
	"ros/internal/image"
	"ros/internal/olfs"
	"ros/internal/rack"
	"ros/internal/sim"
)

// count reads one of fs's counters from its registry.
func count(fs *olfs.FS, name string) int64 { return fs.Obs().Counter(name).Value() }

// usedTrays scans the catalog for trays in the Used state.
func usedTrays(fs *olfs.FS) []rack.TrayID {
	var out []rack.TrayID
	for k, st := range fs.Cat.DA {
		if st != image.DAUsed {
			continue
		}
		var id rack.TrayID
		if _, err := fmt.Sscanf(k, "r%d/L%d/S%d", &id.Roller, &id.Layer, &id.Slot); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// TestDAFailedTrayExcludedAndMigrated covers the scrub.go DAFailed path: when
// a scrub finds a bad disc, the tray must be retired from placement AND its
// still-readable data images must be migrated off it — previously survivors
// were stranded on the failed tray with stale parity coverage.
func TestDAFailedTrayExcludedAndMigrated(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: func(c *olfs.Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true // reads must come off disc, not the buffer
	}})
	bed.Run(t, func(p *sim.Proc) {
		// Two 1 MB buckets (2 data images + parity) burned onto one tray.
		var files []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("/mig/f%d", i)
			if err := bed.FS.WriteFile(p, name, testkit.Pat(400*1024, byte(i+1))); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			files = append(files, name)
		}
		c, err := bed.FS.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		trays := usedTrays(bed.FS)
		if len(trays) != 1 {
			t.Fatalf("used trays = %v, want exactly 1", trays)
		}
		tray := trays[0]
		imagesBefore := len(bed.FS.Cat.ImagesOnTray(tray))
		if imagesBefore != 3 {
			t.Fatalf("images on tray = %d, want 3 (2 data + 1 parity)", imagesBefore)
		}

		// Latent sector error on data disc 0 (array may still sit in drives).
		tr, _ := bed.Lib.Tray(tray)
		disc := tr.Discs
		if len(disc) == 0 {
			for _, g := range bed.Lib.Groups {
				if g.Source != nil && *g.Source == tray {
					for _, d := range g.Drives {
						if d.Disc() != nil {
							disc = append(disc, d.Disc())
						}
					}
				}
			}
		}
		disc[0].CorruptSector(8192)

		rep, err := bed.FS.ScrubAndRepair(p, tray)
		if err != nil {
			t.Fatalf("ScrubAndRepair: %v\n%s", err, bed.Replay())
		}
		if len(rep.BadDiscs) != 1 || rep.BadDiscs[0] != 0 {
			t.Fatalf("bad discs = %v, want [0]", rep.BadDiscs)
		}
		if len(rep.Recovered) != 1 {
			t.Fatalf("recovered = %v, want 1 image", rep.Recovered)
		}
		// The readable survivor (data position 1) must be migrated, not left
		// stranded on the retired tray.
		if len(rep.Migrated) != 1 {
			t.Fatalf("migrated = %v, want 1 image", rep.Migrated)
		}
		if st := bed.FS.Cat.DAState(tray); st != image.DAFailed {
			t.Fatalf("tray state = %v, want DAFailed", st)
		}
		// Nothing in the catalog still points at the failed tray.
		if left := bed.FS.Cat.ImagesOnTray(tray); len(left) != 0 {
			t.Fatalf("images still on failed tray: %v", left)
		}
		if rep.ReBurn == nil {
			t.Fatal("no re-burn queued for the moved images")
		}
		if _, err := rep.ReBurn.Wait(p); err != nil {
			t.Fatalf("re-burn: %v", err)
		}
		// The re-burn must have landed on a different tray: the failed one is
		// excluded from placement (FindEmptyTray only returns Empty trays).
		for _, id := range append(append([]image.ID{}, rep.Recovered...), rep.Migrated...) {
			addr, ok := bed.FS.Cat.Locate(id)
			if !ok {
				t.Fatalf("image %s not re-placed after re-burn", id)
			}
			if addr.Tray == tray {
				t.Fatalf("image %s re-placed on the failed tray %v", id, tray)
			}
		}
		if st := bed.FS.Cat.DAState(tray); st != image.DAFailed {
			t.Fatalf("tray state after re-burn = %v, want DAFailed (still excluded)", st)
		}
		// Every file reads back byte-for-byte through the new tray.
		for i, name := range files {
			got, err := bed.FS.ReadFile(p, name)
			if err != nil {
				t.Fatalf("read %s after migration: %v", name, err)
			}
			if !bytes.Equal(got, testkit.Pat(400*1024, byte(i+1))) {
				t.Fatalf("%s corrupt after migration", name)
			}
		}
	})
	if count(bed.FS, "olfs.repairs") == 0 {
		t.Error("repair counter not bumped")
	}
	if open := bed.FS.Obs().OpenSpans(); open != 0 {
		t.Errorf("open spans = %d, want 0", open)
	}
}

// TestDAFailedSilentCorruptionMigratesAll: a parity mismatch with no
// readable-disc failure (silent corruption on the parity disc) must also
// retire the tray and move every data image off it.
func TestDAFailedSilentCorruptionMigratesAll(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: func(c *olfs.Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	}})
	bed.Run(t, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := bed.FS.WriteFile(p, fmt.Sprintf("/sil/f%d", i), testkit.Pat(400*1024, byte(i+1))); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}
		c, err := bed.FS.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		tray := usedTrays(bed.FS)[0]

		// Flip payload bytes on the parity disc without marking the sector
		// bad: parity verification fails, but every disc reads fine.
		tr, _ := bed.Lib.Tray(tray)
		discs := tr.Discs
		if len(discs) == 0 {
			for _, g := range bed.Lib.Groups {
				if g.Source != nil && *g.Source == tray {
					for _, d := range g.Drives {
						if d.Disc() != nil {
							discs = append(discs, d.Disc())
						}
					}
				}
			}
		}
		// Parity sits at position dataN = 2 (2+1 layout).
		discs[2].FlipByte(8192)

		rep, err := bed.FS.ScrubAndRepair(p, tray)
		if err != nil {
			t.Fatalf("ScrubAndRepair: %v", err)
		}
		if len(rep.Scrub.BadStrips) == 0 {
			t.Fatal("scrub missed the silent corruption")
		}
		if len(rep.BadDiscs) != 0 {
			t.Fatalf("bad discs = %v, want none (silent corruption)", rep.BadDiscs)
		}
		if len(rep.Migrated) != 2 {
			t.Fatalf("migrated = %v, want both data images", rep.Migrated)
		}
		if left := bed.FS.Cat.ImagesOnTray(tray); len(left) != 0 {
			t.Fatalf("images still on failed tray: %v", left)
		}
		if rep.ReBurn == nil {
			t.Fatal("no re-burn queued")
		}
		if _, err := rep.ReBurn.Wait(p); err != nil {
			t.Fatalf("re-burn: %v", err)
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("/sil/f%d", i)
			got, err := bed.FS.ReadFile(p, name)
			if err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			if !bytes.Equal(got, testkit.Pat(400*1024, byte(i+1))) {
				t.Fatalf("%s corrupt", name)
			}
		}
	})
}
