package olfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/rack"
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
				tb.fs.fill(&partSource{id: pid, group: gi, epoch: tb.fs.groupEpoch[gi], tray: tray}, []image.ID{pid})
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
// which returns its slot. The fill pins the tray while it copies a chunk, and
// PrefetchTray refuses to evict a pinned array, so the prefetch is retried
// until it lands between two chunks.
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
		for {
			pinned := tb.fs.sched.Pinned(tray)
			err := tb.fs.PrefetchTray(p, other, gi)
			if err == nil {
				break
			}
			if !pinned || !tb.fs.fills[id] {
				t.Fatalf("PrefetchTray: %v (tray pinned: %v)", err, pinned)
			}
			p.Sleep(time.Millisecond)
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

// burnArray writes one file per size, each sealed into an image of its own
// (Sync), and burns them as one set. It returns the set's tray, the files and
// their contents, and leaves every array home, so the next read of any of
// them fetches the tray.
func burnArray(t *testing.T, tb *testbed, p *sim.Proc, dir string, sizes ...int) (rack.TrayID, []string, [][]byte) {
	t.Helper()
	var paths []string
	var datas [][]byte
	for i, size := range sizes {
		path := fmt.Sprintf("%s/f%d", dir, i)
		data := pat(size, byte(len(dir)+i))
		if err := tb.fs.WriteFile(p, path, data); err != nil {
			t.Fatalf("WriteFile %s: %v", path, err)
		}
		if err := tb.fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		paths, datas = append(paths, path), append(datas, data)
	}
	c, err := tb.fs.FlushAndBurn(p)
	if err != nil {
		t.Fatalf("FlushAndBurn: %v", err)
	}
	if _, err := c.Wait(p); err != nil {
		t.Fatalf("burn: %v", err)
	}
	if err := tb.fs.UnloadIdle(p); err != nil {
		t.Fatalf("UnloadIdle: %v", err)
	}
	addr, _ := tb.fs.Cat.Locate(imageOf(t, tb, p, paths[0]))
	if n := len(tb.fs.Cat.ImagesOnTray(addr.Tray)); n != len(sizes)+tb.fs.cfg.ParityDiscs {
		t.Fatalf("tray %v holds %d images, want %d", addr.Tray, n, len(sizes)+tb.fs.cfg.ParityDiscs)
	}
	return addr.Tray, paths, datas
}

// TestReadFillsEveryDataImageOfItsArray: a read that fetches a 2+1 tray
// leaves both data images resident and the parity image not, so a read of
// the other image's file is a buffer hit that starts no fetch.
func TestReadFillsEveryDataImageOfItsArray(t *testing.T) {
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		tray, paths, datas := burnArray(t, tb, p, "/arr", 300*1024, 300*1024)
		fetches := tb.fs.m.fetchTasks.Value()
		readCheck(t, tb, p, paths[0], datas[0])
		if tb.fs.m.fetchTasks.Value() != fetches+1 {
			t.Fatalf("first read: fetch_tasks %d -> %d, want +1", fetches, tb.fs.m.fetchTasks.Value())
		}
		settle(p)
		for pos, id := range tb.fs.Cat.ImagesOnTray(tray) {
			addr, _ := tb.fs.Cat.Locate(id)
			b, ok := tb.fs.Buckets.Resident(id)
			if addr.Parity && ok {
				t.Errorf("parity image at position %d was cached", pos)
			}
			if !addr.Parity && (!ok || b.State() != bucket.StateBurned) {
				t.Errorf("data image at position %d not cached (resident=%v)", pos, ok)
			}
		}
		fetches, hits := tb.fs.m.fetchTasks.Value(), tb.fs.m.cacheHits.Value()
		start := p.Now()
		readCheck(t, tb, p, paths[1], datas[1])
		if tb.fs.m.fetchTasks.Value() != fetches {
			t.Errorf("sibling read fetched a tray: fetch_tasks %d -> %d", fetches, tb.fs.m.fetchTasks.Value())
		}
		if tb.fs.m.cacheHits.Value() != hits+1 {
			t.Errorf("cache_hits %d -> %d, want +1", hits, tb.fs.m.cacheHits.Value())
		}
		if lat := p.Now() - start; lat > time.Second {
			t.Errorf("sibling read took %v", lat)
		}
	})
	if n := tb.fs.m.cacheFills.Value(); n != 2 {
		t.Errorf("olfs.cache_fills = %d, want 2", n)
	}
}

// TestArrayFillAbortsOnEviction: a tray swapped out while its siblings are
// being copied aborts their fills. Their slots come back free, and no slot
// that held unburned data changed hands. The read touches a one-chunk image,
// whose own fill lands first; the 3+1 array's two 3 MB siblings copy in
// lockstep, so the prefetch lands between two of their chunks.
func TestArrayFillAbortsOnEviction(t *testing.T) {
	tb := coldBed(t, func(c *Config) {
		c.BucketBytes = 4 << 20
		c.DataDiscs = 3
	})
	tb.run(t, func(p *sim.Proc) {
		tray, paths, datas := burnArray(t, tb, p, "/ev", 64*1024, 3<<20, 3<<20)
		other := burnOne(t, tb, p, "/ev/o", pat(64*1024, 36))
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		// An unburned image the fills must not displace.
		if err := tb.fs.WriteFile(p, "/ev/u", pat(64*1024, 37)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if err := tb.fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		unburned := imageOf(t, tb, p, "/ev/u")
		before := make([]bucket.State, len(tb.fs.Buckets.Slots()))
		for i, b := range tb.fs.Buckets.Slots() {
			before[i] = b.State()
		}
		read := imageOf(t, tb, p, paths[0])
		siblings := []image.ID{imageOf(t, tb, p, paths[1]), imageOf(t, tb, p, paths[2])}
		readCheck(t, tb, p, paths[0], datas[0])
		for _, id := range siblings {
			if !tb.fs.fills[id] {
				t.Fatalf("no fill of %s in flight after the read", id)
			}
		}
		gi := tb.fs.groupHolding(tray)
		for {
			pinned := tb.fs.sched.Pinned(tray)
			err := tb.fs.PrefetchTray(p, other, gi)
			if err == nil {
				break
			}
			if !pinned || !tb.fs.fills[siblings[0]] || !tb.fs.fills[siblings[1]] {
				t.Fatalf("PrefetchTray: %v (tray pinned: %v)", err, pinned)
			}
			p.Sleep(time.Millisecond)
		}
		settle(p)
		for _, id := range siblings {
			if tb.fs.fills[id] {
				t.Errorf("fill of %s still in flight after the eviction", id)
			}
			if _, ok := tb.fs.Buckets.Resident(id); ok {
				t.Errorf("a fill that lost its tray published %s", id)
			}
		}
		cached, ok := tb.fs.Buckets.Resident(read)
		if !ok {
			t.Fatal("the read image's one-chunk fill did not land")
		}
		for i, b := range tb.fs.Buckets.Slots() {
			if b.State() != before[i] && b != cached {
				t.Errorf("slot %d went %v -> %v across the aborted fills", i, before[i], b.State())
			}
		}
		if b, ok := tb.fs.Buckets.Resident(unburned); !ok || b.State() != bucket.StateFilled {
			t.Errorf("unburned image lost its slot (resident=%v)", ok)
		}
	})
	if tb.fs.m.fillAborts.Value() != 2 || tb.fs.m.cacheFills.Value() != 1 {
		t.Errorf("fills=%d aborts=%d, want 1 and 2",
			tb.fs.m.cacheFills.Value(), tb.fs.m.fillAborts.Value())
	}
}

// TestUnreadSiblingIsEvictedFirst: under slot pressure the LRU reclaims the
// image filled ahead of any read before the image whose read filled the
// array, and olfs.cache_fill_unread counts the cached images it reclaimed
// without a hit.
func TestUnreadSiblingIsEvictedFirst(t *testing.T) {
	tb := coldBed(t, nil)
	unread := tb.fs.obs.Counter("olfs.cache_fill_unread")
	tb.run(t, func(p *sim.Proc) {
		_, paths, datas := burnArray(t, tb, p, "/lru", 300*1024, 300*1024)
		read, sibling := imageOf(t, tb, p, paths[0]), imageOf(t, tb, p, paths[1])
		readCheck(t, tb, p, paths[0], datas[0])
		settle(p)
		sib, ok := tb.fs.Buckets.Resident(sibling)
		if !ok {
			t.Fatal("sibling not cached")
		}
		held := fillSlots(t, tb, p)
		nb, err := tb.fs.Buckets.Open(p)
		if err != nil {
			t.Fatalf("Open under slot pressure: %v", err)
		}
		held = append(held, nb)
		if nb != sib {
			t.Errorf("Open took slot %d, want the unread sibling's slot %d", nb.Slot, sib.Slot)
		}
		if _, ok := tb.fs.Buckets.Resident(read); !ok {
			t.Error("the image that was read went before its unread sibling")
		}
		if unread.Value() != 1 {
			t.Errorf("olfs.cache_fill_unread = %d after the sibling's eviction, want 1", unread.Value())
		}
		// A hit on the cached copy of the read image: its eviction wastes nothing.
		readCheck(t, tb, p, paths[0], datas[0])
		nb, err = tb.fs.Buckets.Open(p)
		if err != nil {
			t.Fatalf("second Open under slot pressure: %v", err)
		}
		held = append(held, nb)
		if _, ok := tb.fs.Buckets.Resident(read); ok {
			t.Error("the read image was not reclaimed by the second Open")
		}
		if unread.Value() != 1 {
			t.Errorf("olfs.cache_fill_unread = %d after evicting a hit image, want 1", unread.Value())
		}
		for _, b := range held {
			_ = tb.fs.Buckets.Discard(b)
		}
	})
}

// TestArrayFillLeavesTheReadAlone: the read that fills its array takes as
// long as the same read filling only its own image. The siblings copy from
// their own drives, one prefetch-class read slot each, and the group has a
// slot per drive.
func TestArrayFillLeavesTheReadAlone(t *testing.T) {
	latency := func(arrayFill bool) time.Duration {
		tb := coldBed(t, func(c *Config) { c.BucketBytes = 4 << 20 })
		var lat time.Duration
		tb.run(t, func(p *sim.Proc) {
			_, paths, datas := burnArray(t, tb, p, "/lat", 3<<20, 3<<20)
			sibling := imageOf(t, tb, p, paths[1])
			if !arrayFill {
				tb.fs.fills[sibling] = true // as if already filling: fill() skips it
			}
			start := p.Now()
			readCheck(t, tb, p, paths[0], datas[0])
			lat = p.Now() - start
			if !arrayFill {
				delete(tb.fs.fills, sibling)
			}
			settle(p)
			if _, ok := tb.fs.Buckets.Resident(sibling); ok != arrayFill {
				t.Errorf("array fill %v: sibling resident = %v", arrayFill, ok)
			}
		})
		return lat
	}
	alone, array := latency(false), latency(true)
	if array != alone || alone <= 0 {
		t.Errorf("triggering read took %v with the array fill, %v with its image's alone", array, alone)
	}
}

// TestMigrationWaitsForReadSlots: migrating an image off a degraded tray is
// a disc read like a fill, so it queues for its group's read slots and waits
// while a reader holds all of them.
func TestMigrationWaitsForReadSlots(t *testing.T) {
	tb := coldBed(t, nil)
	data := pat(300*1024, 41)
	tb.run(t, func(p *sim.Proc) {
		tray := burnOne(t, tb, p, "/m/a", data)
		id := imageOf(t, tb, p, "/m/a")
		gi, err := tb.fs.fetchTray(p, tray, sched.Interactive)
		if err != nil {
			t.Fatalf("fetchTray: %v", err)
		}
		slots := len(tb.lib.Groups[gi].Drives)
		for i := 0; i < slots; i++ {
			tb.fs.sched.AcquireReadSlot(p, sched.Interactive, gi)
		}
		const hold = time.Minute
		released := p.Now() + hold
		tb.env.Go("reader", func(rp *sim.Proc) {
			rp.Sleep(hold)
			for i := 0; i < slots; i++ {
				tb.fs.sched.ReleaseReadSlot(gi)
			}
		})
		if _, err := tb.fs.migrateImage(p, id); err != nil {
			t.Fatalf("migrateImage: %v", err)
		}
		if p.Now() < released {
			t.Errorf("migration ended at %v, before the reader released the group's read slots at %v", p.Now(), released)
		}
		if _, ok := tb.fs.Cat.Locate(id); ok {
			t.Error("migrated image still has a disc location")
		}
		readCheck(t, tb, p, "/m/a", data)
	})
}
