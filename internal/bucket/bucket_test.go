package bucket

import (
	"errors"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/obs"
	"ros/internal/pagecache"
	"ros/internal/sim"
	"ros/internal/udf"
)

const cap1 = 1 << 20 // 1 MB buckets for tests

func newMgr(t *testing.T, env *sim.Env, slots int) *Manager {
	t.Helper()
	m, err := NewManager(env, newBuffer(env, int64(slots)*cap1), cap1, slots)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newBuffer is a page-cached buffer of size bytes.
func newBuffer(env *sim.Env, size int64) *pagecache.Volume {
	return pagecache.New(env, blockdev.New(env, size, blockdev.SSDProfile()), pagecache.Ext4Rates())
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func TestLifecycle(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 2)
	inSim(t, env, func(p *sim.Proc) {
		b, err := m.Open(p)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if b.State() != StateOpen || b.ID.IsZero() || b.Vol == nil {
			t.Errorf("opened bucket: %+v", b)
		}
		if err := b.Vol.WriteFile(p, "/data/f", []byte("payload")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if err := m.Seal(p, b); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if b.State() != StateFilled || !b.Vol.Finalized() {
			t.Errorf("sealed bucket state: %v", b.State())
		}
		if err := m.MarkBurning(b); err != nil {
			t.Fatalf("MarkBurning: %v", err)
		}
		if err := m.MarkBurned(b); err != nil {
			t.Fatalf("MarkBurned: %v", err)
		}
		// Burned image still resident and readable (read cache).
		got, ok := m.Resident(b.ID)
		if !ok || got != b {
			t.Error("burned image not resident")
		}
		data, err := b.Vol.ReadFile(p, "/data/f")
		if err != nil || string(data) != "payload" {
			t.Errorf("cached read: %q %v", data, err)
		}
		if err := m.Recycle(p, b); err != nil {
			t.Fatalf("Recycle: %v", err)
		}
		if b.State() != StateFree {
			t.Errorf("recycled state = %v", b.State())
		}
		if _, ok := m.Resident(b.ID); ok {
			t.Error("recycled image still resident")
		}
	})
}

func TestInvalidTransitions(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 1)
	inSim(t, env, func(p *sim.Proc) {
		b, _ := m.Open(p)
		if err := m.MarkBurning(b); !errors.Is(err, ErrBadState) {
			t.Errorf("burn open bucket: %v", err)
		}
		if err := m.Recycle(p, b); !errors.Is(err, ErrBadState) {
			t.Errorf("recycle open bucket: %v", err)
		}
		_ = m.Seal(p, b)
		if err := m.Seal(p, b); !errors.Is(err, ErrBadState) {
			t.Errorf("double seal: %v", err)
		}
	})
}

func TestBurnFailedReturnsToFilled(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 1)
	inSim(t, env, func(p *sim.Proc) {
		b, _ := m.Open(p)
		_ = m.Seal(p, b)
		_ = m.MarkBurning(b)
		if err := m.MarkBurnFailed(b); err != nil {
			t.Fatalf("MarkBurnFailed: %v", err)
		}
		if b.State() != StateFilled {
			t.Errorf("state after failed burn = %v", b.State())
		}
		if got := m.FilledUnburned(); len(got) != 1 {
			t.Errorf("FilledUnburned = %d", len(got))
		}
	})
}

func TestSlotExhaustionAndLRUEviction(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 2)
	inSim(t, env, func(p *sim.Proc) {
		b1, _ := m.Open(p)
		b2, _ := m.Open(p)
		// No free slot, nothing evictable (both open).
		if _, err := m.Open(p); !errors.Is(err, ErrNoFreeSlot) {
			t.Errorf("open with full buffer: %v", err)
		}
		// Burn both; b1 accessed more recently than b2.
		for _, b := range []*Bucket{b1, b2} {
			_ = m.Seal(p, b)
			_ = m.MarkBurning(b)
			_ = m.MarkBurned(b)
		}
		m.Touch(b2)
		p.Sleep(1)
		m.Touch(b1)
		id2 := b2.ID
		// Opening now evicts the LRU burned image (b2).
		nb, err := m.Open(p)
		if err != nil {
			t.Fatalf("open with evictable: %v", err)
		}
		if nb.Slot != b2.Slot {
			t.Errorf("evicted slot %d, want %d (LRU)", nb.Slot, b2.Slot)
		}
		if _, ok := m.Resident(id2); ok {
			t.Error("evicted image still resident")
		}
		if m.Evicts != 1 {
			t.Errorf("Evicts = %d", m.Evicts)
		}
	})
}

func TestRawParitySlot(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 1)
	inSim(t, env, func(p *sim.Proc) {
		b, err := m.OpenRaw(p, 512<<10)
		if err != nil {
			t.Fatalf("OpenRaw: %v", err)
		}
		if !b.Raw || b.Vol != nil || b.Used() != 512<<10 {
			t.Errorf("raw bucket: %+v", b)
		}
		// Raw backends accept parity bytes directly.
		if err := b.Backend().WriteAt(p, []byte{1, 2, 3}, 0); err != nil {
			t.Errorf("raw write: %v", err)
		}
		if err := m.Seal(p, b); err != nil {
			t.Fatalf("Seal raw: %v", err)
		}
		if _, err := m.OpenRaw(p, 2<<20); err == nil {
			t.Error("oversized raw slot accepted")
		}
	})
}

func TestDistinctIDs(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 3)
	inSim(t, env, func(p *sim.Proc) {
		seen := map[string]bool{}
		for i := 0; i < 3; i++ {
			b, err := m.Open(p)
			if err != nil {
				t.Fatalf("Open %d: %v", i, err)
			}
			if seen[b.ID.String()] {
				t.Errorf("duplicate ID %v", b.ID)
			}
			seen[b.ID.String()] = true
		}
	})
}

func TestBufferTooSmall(t *testing.T) {
	env := sim.NewEnv()
	if _, err := NewManager(env, newBuffer(env, cap1), cap1, 2); err == nil {
		t.Error("NewManager accepted oversubscribed buffer")
	}
}

func TestIndependentBucketNamespaces(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 2)
	inSim(t, env, func(p *sim.Proc) {
		b1, _ := m.Open(p)
		b2, _ := m.Open(p)
		_ = b1.Vol.WriteFile(p, "/same/path", []byte("one"))
		_ = b2.Vol.WriteFile(p, "/same/path", []byte("two"))
		g1, _ := b1.Vol.ReadFile(p, "/same/path")
		g2, _ := b2.Vol.ReadFile(p, "/same/path")
		if string(g1) != "one" || string(g2) != "two" {
			t.Errorf("cross-talk: %q %q", g1, g2)
		}
	})
}

func TestOpenRawEvictsLRU(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 1)
	inSim(t, env, func(p *sim.Proc) {
		b, _ := m.Open(p)
		_ = m.Seal(p, b)
		_ = m.MarkBurning(b)
		_ = m.MarkBurned(b)
		// OpenRaw must evict the burned slot.
		raw, err := m.OpenRaw(p, 1024)
		if err != nil {
			t.Fatalf("OpenRaw with evictable: %v", err)
		}
		if !raw.Raw || raw.Slot != b.Slot {
			t.Errorf("raw bucket: %+v", raw)
		}
	})
}

func TestAdoptRebindsSlot(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 2)
	inSim(t, env, func(p *sim.Proc) {
		b, _ := m.Open(p)
		id := b.ID
		if err := b.Vol.WriteFile(p, "/f", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		vol := b.Vol
		// Simulate crash: release the slot bookkeeping, then re-adopt.
		m.release(b)
		if _, ok := m.Resident(id); ok {
			t.Fatal("released bucket still resident")
		}
		m.Adopt(b, vol)
		got, ok := m.Resident(id)
		if !ok || got != b || got.State() != StateOpen {
			t.Fatalf("adopt: resident=%v state=%v", ok, b.State())
		}
		// Fresh IDs minted after adoption must not collide.
		nb, err := m.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if nb.ID == id {
			t.Error("ID collision after Adopt")
		}
		// A finalized volume adopts as Filled.
		_ = nb.Vol.Finalize(p)
		vol2 := nb.Vol
		m.release(nb)
		m.Adopt(nb, vol2)
		if nb.State() != StateFilled {
			t.Errorf("finalized adopt state = %v", nb.State())
		}
	})
}

func TestConcurrentOpenReservesSlot(t *testing.T) {
	// Regression for the reservation race: two processes opening
	// concurrently must never share a slot (Open parks inside Format).
	env := sim.NewEnv()
	m := newMgr(t, env, 2)
	slots := make(chan int, 2)
	for i := 0; i < 2; i++ {
		env.Go("opener", func(p *sim.Proc) {
			b, err := m.Open(p)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			slots <- b.Slot
		})
	}
	env.Run()
	close(slots)
	seen := map[int]bool{}
	for s := range slots {
		if seen[s] {
			t.Fatalf("slot %d allocated twice", s)
		}
		seen[s] = true
	}
}

// copyImageInto returns a Cache fill that lands src's bytes in the slot: a
// stand-in for lending the image off its disc.
func copyImageInto(p *sim.Proc, src *Bucket) func(*Bucket) (*udf.Volume, error) {
	return func(dst *Bucket) (*udf.Volume, error) {
		pieces, err := src.Lend(p, 0, cap1, nil)
		if err != nil {
			return nil, err
		}
		if err := dst.Adopt(p, 0, pieces); err != nil {
			return nil, err
		}
		return udf.Open(p, dst.Backend())
	}
}

// TestCacheTakesOnlyFreeOrBurnedSlots: a read-cache fill publishes the copy as
// a burned, resident image; under slot pressure it evicts a burned image but
// never an open, filled or burning bucket, and the write path reclaims cached
// slots rather than failing.
func TestCacheTakesOnlyFreeOrBurnedSlots(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 4)
	inSim(t, env, func(p *sim.Proc) {
		// The image to cache: written, sealed, burned, and dropped.
		img, _ := m.Open(p)
		_ = img.Vol.WriteFile(p, "/f", []byte("cached payload"))
		_ = m.Seal(p, img)
		_ = m.MarkBurning(img)
		_ = m.MarkBurned(img)
		id := img.ID
		b, err := m.Cache(p, func(*Bucket) (*udf.Volume, error) { return nil, ErrBadState })
		if err == nil || b != nil || m.FreeSlots() != 3 {
			t.Fatalf("failed fill: b=%v err=%v free=%d, want its slot back", b, err, m.FreeSlots())
		}
		if _, err := m.Cache(p, copyImageInto(p, img)); err == nil || m.FreeSlots() != 3 {
			t.Fatalf("caching an image that is already resident: err=%v free=%d", err, m.FreeSlots())
		}
		// Park the image's bytes in a raw slot so they outlive Recycle.
		holder, _ := m.OpenRaw(p, cap1)
		buf := make([]byte, cap1)
		_ = img.Backend().ReadAt(p, buf, 0)
		_ = holder.Backend().WriteAt(p, buf, 0)
		_ = m.Recycle(p, img)
		// Fill the remaining slots with unburned states.
		open, _ := m.Open(p)
		filled, _ := m.Open(p)
		_ = m.Seal(p, filled)
		burning, _ := m.Open(p)
		_ = m.Seal(p, burning)
		_ = m.MarkBurning(burning)
		if _, err := m.Cache(p, copyImageInto(p, holder)); !errors.Is(err, ErrNoFreeSlot) {
			t.Fatalf("Cache with only unburned slots: %v, want ErrNoFreeSlot", err)
		}
		for _, u := range []*Bucket{open, filled, burning} {
			if _, ok := m.Resident(u.ID); !ok {
				t.Errorf("slot %d (%v) lost its image to a fill", u.Slot, u.State())
			}
		}
		// Free the burning slot: the fill lands there as a burned image.
		_ = m.MarkBurned(burning)
		c, err := m.Cache(p, copyImageInto(p, holder))
		if err != nil {
			t.Fatalf("Cache with a burned victim: %v", err)
		}
		if c.Slot != burning.Slot || c.State() != StateBurned || c.ID != id {
			t.Fatalf("cached bucket: slot=%d state=%v id=%s", c.Slot, c.State(), c.ID)
		}
		if got, ok := m.Resident(id); !ok || got != c {
			t.Fatal("cached image not resident")
		}
		if data, err := c.Vol.ReadFile(p, "/f"); err != nil || string(data) != "cached payload" {
			t.Errorf("cached read: %q %v", data, err)
		}
		// The write path reclaims the cached slot rather than failing.
		nb, err := m.Open(p)
		if err != nil || nb.Slot != c.Slot {
			t.Fatalf("Open under pressure: slot=%v err=%v, want the cached slot", nb, err)
		}
		if _, ok := m.Resident(id); ok {
			t.Error("reclaimed cached image still resident")
		}
	})
}

// TestSupersededCacheCopyKeepsSuccessorResident: repair adopts a rebuilt copy
// of an image that is also cached; evicting the superseded cached copy must
// not unregister the adopted one.
func TestSupersededCacheCopyKeepsSuccessorResident(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 3)
	inSim(t, env, func(p *sim.Proc) {
		img, _ := m.Open(p)
		_ = img.Vol.WriteFile(p, "/f", []byte("payload"))
		_ = m.Seal(p, img)
		_ = m.MarkBurning(img)
		_ = m.MarkBurned(img)
		holder, _ := m.OpenRaw(p, cap1)
		buf := make([]byte, cap1)
		_ = img.Backend().ReadAt(p, buf, 0)
		_ = holder.Backend().WriteAt(p, buf, 0)
		id := img.ID
		_ = m.Recycle(p, img)
		cached, err := m.Cache(p, copyImageInto(p, holder))
		if err != nil {
			t.Fatalf("Cache: %v", err)
		}
		vol, err := udf.Open(p, holder.Backend())
		if err != nil {
			t.Fatal(err)
		}
		m.Adopt(holder, vol)
		if got, _ := m.Resident(id); got != holder {
			t.Fatal("adopted copy not resident")
		}
		if err := m.Recycle(p, cached); err != nil {
			t.Fatalf("Recycle cached copy: %v", err)
		}
		if got, ok := m.Resident(id); !ok || got != holder {
			t.Error("dropping the superseded cached copy unregistered the adopted one")
		}
	})
}

// TestUnreadCacheEvictionsAreCounted: the LRU reclaiming a cached image no
// read has hit counts as olfs.cache_fill_unread; reclaiming one a read hit
// does not. CacheAhead publishes its copy as accessed when it was called.
func TestUnreadCacheEvictionsAreCounted(t *testing.T) {
	env := sim.NewEnv()
	m := newMgr(t, env, 4)
	reg := obs.New(env)
	m.AttachObs(reg)
	unread := reg.Counter("olfs.cache_fill_unread")
	inSim(t, env, func(p *sim.Proc) {
		// Two burned images whose bytes outlive Recycle in raw slots.
		var holders []*Bucket
		for _, name := range []string{"/a", "/b"} {
			img, _ := m.Open(p)
			_ = img.Vol.WriteFile(p, name, []byte("payload"))
			_ = m.Seal(p, img)
			_ = m.MarkBurning(img)
			_ = m.MarkBurned(img)
			h, _ := m.OpenRaw(p, cap1)
			buf := make([]byte, cap1)
			_ = img.Backend().ReadAt(p, buf, 0)
			_ = h.Backend().WriteAt(p, buf, 0)
			_ = m.Recycle(p, img)
			holders = append(holders, h)
		}
		hit, err := m.Cache(p, copyImageInto(p, holders[0]))
		if err != nil {
			t.Fatalf("Cache: %v", err)
		}
		called := p.Now()
		ahead, err := m.CacheAhead(p, copyImageInto(p, holders[1]))
		if err != nil {
			t.Fatalf("CacheAhead: %v", err)
		}
		if ahead.lastAccess != called || p.Now() <= called {
			t.Errorf("CacheAhead published at %v, called at %v, returned at %v", ahead.lastAccess, called, p.Now())
		}
		m.Touch(hit)
		if b, _ := m.Open(p); b != ahead {
			t.Fatalf("first Open took slot %d, want the never-hit copy's slot %d", b.Slot, ahead.Slot)
		}
		if unread.Value() != 1 {
			t.Errorf("olfs.cache_fill_unread = %d after evicting a never-hit copy, want 1", unread.Value())
		}
		if b, _ := m.Open(p); b != hit {
			t.Fatalf("second Open took slot %d, want the hit copy's slot %d", b.Slot, hit.Slot)
		}
		if unread.Value() != 1 {
			t.Errorf("olfs.cache_fill_unread = %d after evicting a hit copy, want 1", unread.Value())
		}
	})
}
