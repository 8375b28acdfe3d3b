package olfs

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/sched"
	"ros/internal/sim"
)

// coldBed is a bed whose burned buckets leave the buffer, so every read of a
// burned file starts on disc.
func coldBed(t *testing.T, mod func(*Config)) *testbed {
	return newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
		if mod != nil {
			mod(c)
		}
	})
}

// imageOf returns the image holding path's first part.
func imageOf(t *testing.T, tb *testbed, p *sim.Proc, path string) image.ID {
	t.Helper()
	ix, err := tb.fs.MV.Stat(p, path)
	if err != nil {
		t.Fatalf("Stat %s: %v", path, err)
	}
	return ix.Current().Parts[0]
}

// settle lets background fills finish (a 1 MB image copies in ~45 ms).
func settle(p *sim.Proc) { p.Sleep(5 * time.Second) }

func readCheck(t *testing.T, tb *testbed, p *sim.Proc, path string, want []byte) {
	t.Helper()
	got, err := tb.fs.ReadFile(p, path)
	if err != nil {
		t.Fatalf("ReadFile %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadFile %s: wrong bytes", path)
	}
}

func TestCacheFillMakesRereadABufferHit(t *testing.T) {
	tb := coldBed(t, nil)
	data := pat(300*1024, 31)
	tb.run(t, func(p *sim.Proc) {
		burnOne(t, tb, p, "/c/a", data)
		id := imageOf(t, tb, p, "/c/a")
		if _, ok := tb.fs.Buckets.Resident(id); ok {
			t.Fatal("image resident before the first read")
		}
		readCheck(t, tb, p, "/c/a", data)
		settle(p)
		b, ok := tb.fs.Buckets.Resident(id)
		if !ok || b.State() != bucket.StateBurned {
			t.Fatalf("image not cached after a disc read (resident=%v)", ok)
		}
		fetches, hits := tb.fs.m.fetchTasks.Value(), tb.fs.m.cacheHits.Value()
		start := p.Now()
		readCheck(t, tb, p, "/c/a", data)
		if tb.fs.m.fetchTasks.Value() != fetches {
			t.Errorf("re-read fetched a tray: fetch_tasks %d -> %d", fetches, tb.fs.m.fetchTasks.Value())
		}
		if tb.fs.m.cacheHits.Value() != hits+1 {
			t.Errorf("cache_hits %d -> %d, want +1", hits, tb.fs.m.cacheHits.Value())
		}
		if lat := p.Now() - start; lat > time.Second {
			t.Errorf("cached re-read took %v", lat)
		}
	})
	if n := tb.fs.m.cacheFills.Value(); n != 1 {
		t.Errorf("olfs.cache_fills = %d, want 1", n)
	}
	if n := tb.fs.m.fillLatency.Count(); n != 1 {
		t.Errorf("olfs.cache_fill.latency count = %d, want 1", n)
	}
}

func TestCacheNeverFillsFromProbesOrBackgroundReads(t *testing.T) {
	tb := coldBed(t, nil)
	data := pat(200*1024, 32)
	tb.run(t, func(p *sim.Proc) {
		tray := burnOne(t, tb, p, "/c/p", data)
		id := imageOf(t, tb, p, "/c/p")
		// Table 1's data-path probe.
		if got, err := tb.fs.ReadLocated(p, "/c/p"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadLocated: %d bytes, %v", len(got), err)
		}
		settle(p)
		// A background-class whole-file read (cluster re-replication).
		if got, err := tb.fs.ReadFileClass(p, "/c/p", sched.Prefetch); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadFileClass(Prefetch): %d bytes, %v", len(got), err)
		}
		settle(p)
		// Maintenance reads of every disc, parity included.
		if _, err := tb.fs.ScrubTray(p, tray); err != nil {
			t.Fatalf("ScrubTray: %v", err)
		}
		settle(p)
		// Even handed a parity source directly, a fill refuses it.
		gi := tb.fs.groupHolding(tray)
		if gi < 0 {
			t.Fatal("tray not loaded after the scrub")
		}
		for _, pid := range tb.fs.Cat.ImagesOnTray(tray) {
			if a, _ := tb.fs.Cat.Locate(pid); a.Parity {
				tb.fs.startFill(&partSource{id: pid, group: gi, epoch: tb.fs.groupEpoch[gi], tray: tray})
			}
		}
		settle(p)
		if _, ok := tb.fs.Buckets.Resident(id); ok {
			t.Error("a probe or background read cached the image")
		}
	})
	if n := tb.fs.m.cacheFills.Value() + tb.fs.m.fillAborts.Value(); n != 0 {
		t.Errorf("fills started = %d, want 0", n)
	}
}

// fillSlots opens buckets until no free slot is left and returns them.
func fillSlots(t *testing.T, tb *testbed, p *sim.Proc) []*bucket.Bucket {
	t.Helper()
	var held []*bucket.Bucket
	for tb.fs.Buckets.FreeSlots() > 0 {
		b, err := tb.fs.Buckets.Open(p)
		if err != nil {
			t.Fatalf("Open with %d free slots: %v", tb.fs.Buckets.FreeSlots(), err)
		}
		held = append(held, b)
	}
	return held
}

// TestCachedSlotReclaimedUnderOpenHandle: the write path reclaims a cached
// image's slot (it is the only burned one when the buffer is full) while a
// handle holds a source on it. The handle re-resolves to the disc and reads
// the right bytes; the reclaim never hands out an unburned bucket.
func TestCachedSlotReclaimedUnderOpenHandle(t *testing.T) {
	tb := coldBed(t, nil)
	data := pat(300*1024, 33)
	tb.run(t, func(p *sim.Proc) {
		burnOne(t, tb, p, "/c/r", data)
		id := imageOf(t, tb, p, "/c/r")
		readCheck(t, tb, p, "/c/r", data)
		settle(p)
		cached, ok := tb.fs.Buckets.Resident(id)
		if !ok {
			t.Fatal("image not cached")
		}
		fr, err := tb.fs.OpenFile(p, "/c/r")
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		buf := make([]byte, len(data))
		h := len(buf) / 2
		if n, err := fr.ReadAt(p, buf[:h], 0); err != nil || n != h {
			t.Fatalf("first half: n=%d err=%v", n, err)
		}
		if fr.sources[0].group >= 0 {
			t.Fatal("first half was not served from the cache")
		}
		held := fillSlots(t, tb, p)
		// Full buffer: the next Open must reclaim the cached slot, not fail.
		nb, err := tb.fs.Buckets.Open(p)
		if err != nil {
			t.Fatalf("Open under slot pressure: %v", err)
		}
		held = append(held, nb)
		if nb != cached {
			t.Fatalf("Open took slot %d, want the cached slot %d", nb.Slot, cached.Slot)
		}
		if _, ok := tb.fs.Buckets.Resident(id); ok {
			t.Fatal("reclaimed image still resident")
		}
		stale := tb.fs.m.staleSources.Value()
		if n, err := fr.ReadAt(p, buf[h:], int64(h)); err != nil || n != len(buf)-h {
			t.Fatalf("second half after reclaim: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("read across the reclaim returned wrong bytes")
		}
		if tb.fs.m.staleSources.Value() <= stale {
			t.Error("the reclaimed source was not detected as stale")
		}
		fr.Close(p)
		// With only open buckets left, a fill finds no victim and gives up.
		settle(p)
		for _, b := range held {
			if b.State() != bucket.StateOpen {
				t.Errorf("slot %d changed to %v under a fill", b.Slot, b.State())
			}
			_ = tb.fs.Buckets.Discard(b)
		}
	})
	if n := tb.fs.m.fillAborts.Value(); n != 1 {
		t.Errorf("olfs.cache_fill_aborts = %d, want 1 (no slot for the re-fill)", n)
	}
}

// TestCacheFillAbortsOnEviction: a tray swapped out mid-copy aborts the fill,
// which returns its slot.
func TestCacheFillAbortsOnEviction(t *testing.T) {
	tb := coldBed(t, func(c *Config) { c.BucketBytes = 4 << 20 })
	data := pat(3<<20, 34) // a 3 MB image: several fill chunks
	tb.run(t, func(p *sim.Proc) {
		tray := burnOne(t, tb, p, "/c/e", data)
		other := burnOne(t, tb, p, "/c/o", pat(64*1024, 35))
		// Both arrays home, so the read below loads the tray and the
		// prefetch evicts it while the fill is still copying.
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		id := imageOf(t, tb, p, "/c/e")
		free := tb.fs.Buckets.FreeSlots()
		readCheck(t, tb, p, "/c/e", data)
		if !tb.fs.fills[id] {
			t.Fatal("no fill in flight after the read")
		}
		gi := tb.fs.groupHolding(tray)
		if err := tb.fs.PrefetchTray(p, other, gi); err != nil {
			t.Fatalf("PrefetchTray: %v", err)
		}
		settle(p)
		if tb.fs.fills[id] {
			t.Fatal("fill still in flight after the eviction")
		}
		if _, ok := tb.fs.Buckets.Resident(id); ok {
			t.Error("a fill that lost its tray published the image")
		}
		if got := tb.fs.Buckets.FreeSlots(); got != free {
			t.Errorf("FreeSlots = %d after the aborted fill, want %d", got, free)
		}
		for _, b := range tb.fs.Buckets.Slots() {
			if b.State() == bucket.StateOpen {
				t.Errorf("slot %d leaked in state open", b.Slot)
			}
		}
	})
	if tb.fs.m.fillAborts.Value() != 1 || tb.fs.m.cacheFills.Value() != 0 {
		t.Errorf("fills=%d aborts=%d, want 0 and 1",
			tb.fs.m.cacheFills.Value(), tb.fs.m.fillAborts.Value())
	}
}
