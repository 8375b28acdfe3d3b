package olfs_test

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/faultinject/testkit"
	"ros/internal/olfs"
	"ros/internal/rack"
	"ros/internal/sim"
)

// TestReadDuringUnloadFetchesInsteadOfReadingEmptyDrive is the regression
// for cold reads failing with "optical: no disc in drive": a read arriving
// after the arm has collected a tray's discs, while rack still names the
// tray as the group's source, used to mount the emptied drive. A group is no
// source from the moment its unload begins, so the read fetches the tray
// back (queueing behind the unload on the roller) and returns the bytes.
func TestReadDuringUnloadFetchesInsteadOfReadingEmptyDrive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		bed := testkit.New(t, testkit.Options{Seed: seed, Config: func(c *olfs.Config) {
			c.AutoBurn = false
			c.RecycleAfterBurn = true
		}})
		data := testkit.Pat(200*1024, byte(seed))
		var got []byte
		var readErr error
		bed.Run(t, func(p *sim.Proc) {
			trays := make([]rack.TrayID, 2)
			for i, path := range []string{"/nd/a", "/nd/b"} {
				if err := bed.FS.WriteFile(p, path, testkit.Pat(200*1024, byte(seed)+byte(i))); err != nil {
					t.Fatalf("WriteFile %s: %v", path, err)
				}
				c, err := bed.FS.FlushAndBurn(p)
				if err != nil {
					t.Fatalf("FlushAndBurn: %v", err)
				}
				if _, err := c.Wait(p); err != nil {
					t.Fatalf("burn %s: %v", path, err)
				}
				ix, _ := bed.FS.MV.Lookup(path)
				addr, ok := bed.FS.Cat.Locate(ix.Current().Parts[0])
				if !ok {
					t.Fatalf("%s not burned", path)
				}
				trays[i] = addr.Tray
			}
			if err := bed.FS.PrefetchTray(p, trays[0], 0); err != nil {
				t.Fatalf("PrefetchTray: %v", err)
			}
			g := bed.Lib.Groups[0]
			evicted := sim.NewCompletion[error](bed.Env)
			bed.Env.Go("evictor", func(ep *sim.Proc) {
				evicted.Resolve(bed.FS.PrefetchTray(ep, trays[1], 0), nil)
			})
			// Wait until the arm has collected the discs but the unload is
			// still moving them back: the tray is in transit.
			for g.Drives[0].Loaded() {
				p.Sleep(10 * time.Millisecond)
			}
			if g.Source == nil || *g.Source != trays[0] {
				t.Fatal("unload finished before the read could race it")
			}
			got, readErr = bed.FS.ReadFile(p, "/nd/a")
			if err, _ := evicted.Wait(p); err != nil {
				t.Fatalf("evicting PrefetchTray: %v", err)
			}
		})
		if readErr != nil {
			t.Fatalf("seed %d: read during unload: %v\n%s", seed, readErr, bed.Replay())
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("seed %d: read during unload returned wrong bytes", seed)
		}
	}
}
