package ros

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/image"
	"ros/internal/rack"
)

// TestPrototypeScale assembles the paper's full evaluation prototype — two
// rollers of 6120 100 GB discs (1.224 PB raw), 24 drives, 11+1 redundancy,
// full-size 100 GB buckets — and runs a small workload through it. Sparse
// storage keeps the petabyte rack inside an ordinary test process.
func TestPrototypeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("PB-scale assembly")
	}
	sys, err := New(PrototypeOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if got := sys.Stats().TotalDiscs; got != 12240 {
		t.Fatalf("TotalDiscs = %d, want 12240 (§5.1)", got)
	}
	var raw int64
	for _, r := range sys.Cluster.Racks()[0].Lib.Rollers {
		for l := 0; l < rack.LayersPerRoller; l++ {
			for s := 0; s < rack.SlotsPerLayer; s++ {
				for _, d := range r.Tray(l, s).Discs {
					raw += d.Capacity()
				}
			}
		}
	}
	if raw != 1224e12 {
		t.Fatalf("raw capacity = %d, want 1.224 PB", raw)
	}
	data := bytes.Repeat([]byte{0xCD, 0x10}, 2<<20)
	err = sys.Do(func(p *Proc) error {
		start := p.Now()
		if err := sys.FS.WriteFile(p, "/pb/sample.bin", data); err != nil {
			return err
		}
		writeAck := p.Now() - start
		if writeAck > 100*time.Millisecond {
			t.Errorf("PB-scale write ack = %v, want ms-scale", writeAck)
		}
		got, err := sys.FS.ReadFile(p, "/pb/sample.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("PB-scale round trip mismatch")
		}
		// Force a (partial-set) burn of 100 GB media: the full write-all-once
		// pass takes ~3757 s per disc in virtual time.
		start = p.Now()
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		burn := p.Now() - start
		if burn < 3700*time.Second {
			t.Errorf("100GB burn completed in %v — should take >= one full disc pass", burn)
		}
		// Data remains inline-readable from the cached image.
		if _, err := sys.FS.ReadFile(p, "/pb/sample.bin"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrossRollerBurnAndFetch forces the allocator past roller 0 and checks
// that burning and mechanical fetching work against the second roller's arm.
func TestCrossRollerBurnAndFetch(t *testing.T) {
	sys, err := New(Options{
		Rollers:         2,
		BucketBytes:     1 << 20,
		DisableAutoBurn: true,
		FS:              FSConfig{DataDiscs: 2, ParityDiscs: 1, BurnStagger: time.Second, RecycleAfterBurn: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	// Exhaust roller 0: mark every tray Used so FindEmptyTray must go to
	// roller 1.
	for l := 0; l < rack.LayersPerRoller; l++ {
		for s := 0; s < rack.SlotsPerLayer; s++ {
			sys.FS.Cat.SetDAState(rack.TrayID{Roller: 0, Layer: l, Slot: s}, image.DAUsed)
		}
	}
	data := bytes.Repeat([]byte{7, 11}, 200<<10)
	err = sys.Do(func(p *Proc) error {
		if err := sys.FS.WriteFile(p, "/r1/data.bin", data); err != nil {
			return err
		}
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		// The burn must have landed on roller 1.
		ix, _ := sys.FS.MV.Lookup("/r1/data.bin")
		addr, ok := sys.FS.Cat.Locate(ix.Current().Parts[0])
		if !ok {
			t.Fatal("image not placed")
		}
		if addr.Tray.Roller != 1 {
			t.Fatalf("burned to roller %d, want 1", addr.Tray.Roller)
		}
		// Cold read: mechanical fetch through roller 1's own arm, once the
		// burned array is back in its tray.
		if err := sys.FS.UnloadIdle(p); err != nil {
			return err
		}
		start := p.Now()
		got, err := sys.FS.ReadFile(p, "/r1/data.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("cross-roller data mismatch")
		}
		if d := p.Now() - start; d < 60*time.Second {
			t.Errorf("cold cross-roller read took %v, want a mechanical fetch", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
