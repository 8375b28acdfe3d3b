package olfs

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/bucket"
	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/optical"
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
			trays := tb.fs.Cat.Trays(image.DAUsed)
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

// TestReadAfterBurnReadsOnlyItsData: a burn hands each data image's
// namespace to the background mount of its disc, so a read of a file two
// directories below the root of a just-burned image reaches the disc once,
// for its data. It takes less than one short seek plus its transfer and the
// op costs a buffer read of the file pays. Resolving the path on disc took
// an entry read and a records read per directory, and the file's entry, each
// a short seek: 8 reads and about 200 ms. An array fetched back from the
// roller is mounted without the namespace, and its reads walk the path on
// disc again.
func TestReadAfterBurnReadsOnlyItsData(t *testing.T) {
	const path = "/deep/d0001/f000001"
	data := pat(64*1024, 67)
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, path, data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		buffered := timedRead(t, tb, p, path, data)
		c, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		addr, ok := tb.fs.Cat.Locate(imageOf(t, tb, p, path))
		if !ok {
			t.Fatal("image not placed after its burn")
		}
		settle(p)
		before := discReads(tb)
		lat := timedRead(t, tb, p, path, data)
		if n := discReads(tb) - before; n != 1 {
			t.Errorf("read of the just-burned file made %d disc reads, want 1 (its data)", n)
		}
		// 25 GB media reads at 24.1 MB/s on a drive of its own.
		bound := buffered + optical.SeekTime/4 + sim.ByteTime(float64(len(data)), 24.1e6)
		if lat >= bound {
			t.Errorf("read of the just-burned file took %v, want under %v (a buffer read %v, a short seek, the transfer)",
				lat, bound, buffered)
		}
		t.Logf("buffered %v, just burned %v", buffered, lat)

		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		if err := tb.fs.PrefetchTray(p, addr.Tray, 0); err != nil {
			t.Fatalf("PrefetchTray: %v", err)
		}
		timedRead(t, tb, p, path, data) // pays the mount
		before = discReads(tb)
		lat = timedRead(t, tb, p, path, data)
		if n := discReads(tb) - before; n != 8 {
			t.Errorf("read on the fetched array made %d disc reads, want 8 (the path walked on disc)", n)
		}
		t.Logf("fetched %v", lat)
	})
}

// TestMetaNeverServesAnotherImage: a mount takes the namespace a burn hands
// it only for its own image, on the array the burn left in the group. A
// claimant that evicts the burned array while the burn is still taking the
// namespace from the buffer leaves no mount behind, and the tray loaded in
// its place reads its own bytes, walking its paths on disc. A namespace of
// another image handed to a mount is dropped; the disc walks its own.
func TestMetaNeverServesAnotherImage(t *testing.T) {
	const pathA, pathB = "/guard/a/f", "/guard/b/f"
	dataA, dataB := pat(100*1024, 68), pat(100*1024, 69)
	// walk is the disc reads of a read of pathA or pathB on a mounted disc
	// with no namespace in memory: the root's entry and records, those of
	// the file's directory and of /guard, the file's entry, and the data.
	const walk = 8
	t.Run("evicted-during-meta", func(t *testing.T) {
		tb := coldBed(t, nil)
		tb.run(t, func(p *sim.Proc) {
			b := burnOne(t, tb, p, pathB, dataB)
			settle(p)
			if err := tb.fs.UnloadIdle(p); err != nil {
				t.Fatalf("UnloadIdle: %v", err)
			}
			// Pin an array in group 1, so a's burn takes group 0.
			c := burnOne(t, tb, p, "/guard/c", pat(4096, 70))
			if gi := tb.fs.groupHolding(c); gi != 0 {
				t.Fatalf("c in group %d, want 0", gi)
			}
			if err := tb.fs.PrefetchTray(p, c, 1); err != nil {
				t.Fatalf("PrefetchTray(c, 1): %v", err)
			}
			tb.fs.sched.Pin(c)
			defer tb.fs.sched.Unpin(c)
			swapped := sim.NewCompletion[error](tb.env)
			tb.env.AddEventSink(func(ev sim.TraceEvent) {
				if ev.Kind != sim.KindBurnFinish || swapped.Done() {
					return
				}
				// The burn has released its group and is reading the
				// namespace out of the buffer.
				tb.env.Go("claimant", func(cp *sim.Proc) {
					swapped.Resolve(nil, tb.fs.PrefetchTray(cp, b, 0))
				})
			})
			burnOne(t, tb, p, pathA, dataA)
			if err, _ := swapped.Wait(p); err != nil {
				t.Fatalf("PrefetchTray(b, 0) at the burn's end: %v", err)
			}
			if tb.fs.groupHolding(b) != 0 {
				t.Fatalf("b in group %d, want 0", tb.fs.groupHolding(b))
			}
			if len(tb.fs.mounting) != 0 || len(tb.fs.mounted) != 0 {
				t.Errorf("after the swap: %d mounts in flight, %d mounted, want none", len(tb.fs.mounting), len(tb.fs.mounted))
			}
			before := discReads(tb)
			timedRead(t, tb, p, pathB, dataB)
			if n := discReads(tb) - before; n != 1+walk {
				t.Errorf("read on b made %d disc reads, want %d: the mount's one and the path walked on disc", n, 1+walk)
			}
		})
	})
	t.Run("another-image", func(t *testing.T) {
		tb := coldBed(t, nil)
		tb.run(t, func(p *sim.Proc) {
			a := burnOne(t, tb, p, pathA, dataA)
			settle(p)
			if err := tb.fs.UnloadIdle(p); err != nil {
				t.Fatalf("UnloadIdle: %v", err)
			}
			if err := tb.fs.PrefetchTray(p, a, 0); err != nil {
				t.Fatalf("PrefetchTray(a, 0): %v", err)
			}
			// A buffer-resident image whose namespace has pathB where a's
			// has pathA.
			if err := tb.fs.WriteFile(p, pathB, dataB); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			other, ok := tb.fs.Buckets.Resident(imageOf(t, tb, p, pathB))
			if !ok {
				t.Fatal("the unburned image is not resident")
			}
			tb.fs.mountBurned(p, 0, a, []*bucket.Bucket{other})
			settle(p)
			drv := tb.lib.Groups[0].Drives[0]
			if vol, ok := tb.fs.mounted[drv]; !ok || vol.ImageID() != imageOf(t, tb, p, pathA) {
				t.Fatalf("drive %s: mounted=%v, want a's image", drv.ID, ok)
			}
			before := discReads(tb)
			timedRead(t, tb, p, pathA, dataA)
			if n := discReads(tb) - before; n != walk {
				t.Errorf("read on a made %d disc reads, want %d: the path walked on disc", n, walk)
			}
		})
	})
}
