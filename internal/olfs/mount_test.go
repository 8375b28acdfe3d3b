package olfs

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/sched"
	"ros/internal/sim"
)

// discReads is the number of optical reads every drive of the bed has made.
func discReads(tb *testbed) int64 { return tb.fs.Obs().Histogram("optical.read.latency").Count() }

// timedRead reads path at class sched.Prefetch, which starts no cache fill,
// so every optical read in the window is the read's own or a mount's. It
// checks the bytes and returns the read's latency.
func timedRead(t *testing.T, tb *testbed, p *sim.Proc, path string, want []byte) time.Duration {
	t.Helper()
	start := p.Now()
	got, err := tb.fs.ReadFileClass(p, path, sched.Prefetch)
	if err != nil {
		t.Fatalf("ReadFile %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadFile %s: wrong bytes", path)
	}
	return p.Now() - start
}

// TestReadAfterBurnPaysNoMount: a successful burn mounts its data discs in
// the background, so a read of the just-burned array does not pay
// vfsMountTime. Issued once the drive has been idle for a moment, the read
// finds its disc mounted and takes under one mount's time; issued the instant
// the burn's completion resolves, it waits for the remainder of that one
// mount and starts no second one.
func TestReadAfterBurnPaysNoMount(t *testing.T) {
	data := pat(300*1024, 61)
	run := func(idle time.Duration) (lat time.Duration, reads int64) {
		tb := coldBed(t, nil)
		tb.run(t, func(p *sim.Proc) {
			tray := burnOne(t, tb, p, "/mnt/a", data)
			gi := tb.fs.groupHolding(tray)
			if gi < 0 {
				t.Fatal("the burned array left its drives")
			}
			if _, ok := tb.fs.mounting[tb.lib.Groups[gi].Drives[0]]; !ok {
				t.Fatal("no mount in flight when the burn's completion resolved")
			}
			p.Sleep(idle)
			before := discReads(tb)
			lat = timedRead(t, tb, p, "/mnt/a", data)
			reads = discReads(tb) - before
		})
		if n := tb.fs.m.fetchTasks.Value(); n != 0 {
			t.Errorf("olfs.fetch_tasks = %d, want 0", n)
		}
		return lat, reads
	}
	idleLat, idleReads := run(time.Second)
	if idleLat >= vfsMountTime {
		t.Errorf("read 1 s after the burn took %v, want under the %v mount", idleLat, vfsMountTime)
	}
	lat, reads := run(0)
	// The joined mount's descriptor read lands inside this read's window.
	if reads != idleReads+1 {
		t.Errorf("read right after the burn made %d disc reads, want %d: its own %d plus the background mount's one",
			reads, idleReads+1, idleReads)
	}
	if lat > vfsMountTime+idleLat {
		t.Errorf("read right after the burn took %v, want at most one mount plus an in-drive read (%v)",
			lat, vfsMountTime+idleLat)
	}
}

// TestEvictionRacesBackgroundMount: a claimant that evicts a just-burned
// array while its background mount is in flight leaves no mount of the old
// tray behind, and a read of the tray loaded in its place gets its own bytes.
func TestEvictionRacesBackgroundMount(t *testing.T) {
	tb := coldBed(t, nil)
	dataB := pat(200*1024, 62)
	tb.run(t, func(p *sim.Proc) {
		b := burnOne(t, tb, p, "/race/b", dataB)
		settle(p)
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		a := burnOne(t, tb, p, "/race/a", pat(200*1024, 63))
		gi := tb.fs.groupHolding(a)
		if gi < 0 || len(tb.fs.mounting) == 0 {
			t.Fatalf("want a in a group with its mount in flight: group %d, %d mounts in flight", gi, len(tb.fs.mounting))
		}
		if err := tb.fs.PrefetchTray(p, b, gi); err != nil {
			t.Fatalf("PrefetchTray(b, %d): %v", gi, err)
		}
		if tb.fs.groupHolding(b) != gi {
			t.Fatalf("b in group %d, want %d", tb.fs.groupHolding(b), gi)
		}
		timedRead(t, tb, p, "/race/b", dataB)
		if len(tb.fs.mounting) != 0 {
			t.Errorf("%d mounts still in flight at quiescence", len(tb.fs.mounting))
		}
		for drv, vol := range tb.fs.mounted {
			addr, ok := tb.fs.Cat.Locate(image.ID(vol.ImageID()))
			if !ok || addr.Tray != b {
				t.Errorf("drive %s keeps a mount of image %s on %v, want only b's (%v)",
					drv.ID, image.ID(vol.ImageID()), addr.Tray, b)
			}
		}
	})
}

// TestConcurrentReadersShareOneMount is the regression test for one mount
// per disc: two readers of two files on one unmounted disc, issued at the
// same instant, used to sleep vfsMountTime and open the volume once each.
// Now the drive sees the disc reads of one mount, exactly as when the two
// reads run one after the other, and both finish within that one mount plus
// their own reads.
func TestConcurrentReadersShareOneMount(t *testing.T) {
	files := []string{"/one/a", "/one/b"}
	data := [][]byte{pat(100*1024, 64), pat(150*1024, 65)}
	run := func(concurrent bool) (lat [2]time.Duration, reads int64) {
		tb := coldBed(t, nil)
		tb.run(t, func(p *sim.Proc) {
			for i, f := range files {
				if err := tb.fs.WriteFile(p, f, data[i]); err != nil {
					t.Fatalf("WriteFile %s: %v", f, err)
				}
			}
			c, err := tb.fs.FlushAndBurn(p)
			if err != nil {
				t.Fatalf("FlushAndBurn: %v", err)
			}
			if _, err := c.Wait(p); err != nil {
				t.Fatalf("burn: %v", err)
			}
			trays := tb.fs.Cat.UsedTrays()
			tray := trays[len(trays)-1]
			settle(p)
			// Put the array home and load it again: a fetch-load mounts
			// nothing, so the disc is in its drive and unmounted.
			if err := tb.fs.UnloadIdle(p); err != nil {
				t.Fatalf("UnloadIdle: %v", err)
			}
			if err := tb.fs.PrefetchTray(p, tray, 0); err != nil {
				t.Fatalf("PrefetchTray: %v", err)
			}
			if len(tb.fs.mounted) != 0 {
				t.Fatalf("%d discs mounted after a fetch-load, want none", len(tb.fs.mounted))
			}
			before := discReads(tb)
			if !concurrent {
				for i, f := range files {
					lat[i] = timedRead(t, tb, p, f, data[i])
				}
			} else {
				_ = p.Fork("reader", len(files), func(rp *sim.Proc, i int) error {
					lat[i] = timedRead(t, tb, rp, files[i], data[i])
					return nil
				})
			}
			reads = discReads(tb) - before
		})
		return lat, reads
	}
	seq, seqReads := run(false)
	both, reads := run(true)
	if reads != seqReads {
		t.Errorf("concurrent readers made %d disc reads, want %d as when they run in turn (one mount)", reads, seqReads)
	}
	// In turn, the first read pays the mount and the second finds the disc
	// mounted, so their sum is one mount plus both reads' own seeks.
	if bound := seq[0] + seq[1]; max(both[0], both[1]) > bound {
		t.Errorf("concurrent reads took %v and %v, want both within one mount plus their own reads (%v)",
			both[0], both[1], bound)
	}
}

// TestJoinedReaderOutlivesFailedMount: a reader that joined the background
// mount does not inherit that mount's failure. It mounts the disc itself,
// as it would have had the background mount never run.
func TestJoinedReaderOutlivesFailedMount(t *testing.T) {
	tb := coldBed(t, nil)
	data := pat(200*1024, 66)
	tb.run(t, func(p *sim.Proc) {
		burnOne(t, tb, p, "/jf/a", data)
		// The first disc read from here on is the background mount's
		// descriptor read; the reader has joined that mount by then.
		pl := faultinject.New(tb.env, 1)
		if _, err := pl.ArmSpec("optical.read:once"); err != nil {
			t.Fatal(err)
		}
		timedRead(t, tb, p, "/jf/a", data)
		if pl.Fires() != 1 {
			t.Errorf("%d faults injected, want the background mount's one", pl.Fires())
		}
	})
}
