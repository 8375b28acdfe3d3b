package olfs

import (
	"bytes"
	"runtime"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/bucket"
	"ros/internal/chunk"
	"ros/internal/image"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/sim"
)

// TestBurnAllocBudget: a burn lends the bucket slot's chunks to the disc, so
// burning a full 2 MB slot allocates bookkeeping, not a copy of the image
// (it used to allocate the 2 MB again).
func TestBurnAllocBudget(t *testing.T) {
	const size = 2 << 20
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	buf := pagecache.New(env, blockdev.New(env, 2*size, blockdev.SSDProfile()), pagecache.Ext4Rates())
	m, err := bucket.NewManager(env, buf, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	dr := optical.NewDrive(env, "d0", nil)
	data := pat(size, 9)
	env.Go("burn", func(p *sim.Proc) {
		img, err := m.OpenRaw(p, size)
		if err != nil {
			t.Fatalf("OpenRaw: %v", err)
		}
		if err := img.Backend().WriteAt(p, data, 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		buf.Sync(p) // write-back now, not during the burn
		if err := dr.Load(p, optical.NewDisc("disc0", optical.Media25)); err != nil {
			t.Fatalf("Load: %v", err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := dr.Burn(p, offsetSource{b: img, size: size}, optical.BurnOptions{}); err != nil {
			t.Fatalf("Burn: %v", err)
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= chunk.Size {
			t.Errorf("burning a %d-byte slot allocated %d bytes, budget is < %d", size, got, chunk.Size)
		} else {
			t.Logf("burning a %d-byte slot allocated %d bytes", size, got)
		}
		got := make([]byte, size)
		if err := dr.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, data) {
			t.Errorf("disc read after the burn differs (err=%v)", err)
		}
	})
	env.Run()
}

// discImage loads the tray holding addr into group 0 if no group holds it
// and returns the image bytes as that disc reads them.
func discImage(t *testing.T, tb *testbed, p *sim.Proc, addr image.DiscAddr) []byte {
	t.Helper()
	gi := tb.fs.groupHolding(addr.Tray)
	if gi < 0 {
		if err := tb.fs.PrefetchTray(p, addr.Tray, 0); err != nil {
			t.Fatalf("PrefetchTray: %v", err)
		}
		gi = 0
	}
	got := make([]byte, addr.Len)
	if err := (optical.ImageView{Drive: tb.lib.Groups[gi].Drives[addr.Pos]}).ReadAt(p, got, 0); err != nil {
		t.Fatalf("disc read: %v", err)
	}
	return got
}

// slotImage returns the first n bytes of a buffer slot.
func slotImage(t *testing.T, p *sim.Proc, b *bucket.Bucket, n int64) []byte {
	t.Helper()
	got := make([]byte, n)
	if err := b.Backend().ReadAt(p, got, 0); err != nil {
		t.Fatalf("slot read: %v", err)
	}
	return got
}

// TestDiscFlipLeavesBufferCopyIntact: a burned image and the slot it was
// burned from share chunks, as do a disc and the slot a cache fill landed its
// image in. Bit rot injected on the disc (FlipByte) must stay on the disc:
// the buffer copy keeps the original bytes and keeps serving the file.
func TestDiscFlipLeavesBufferCopyIntact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recycle bool // the burn drops the slot, so the copy comes from a fill
	}{{"after burn", false}, {"after fill", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newBed(t, func(c *Config) {
				c.AutoBurn = false
				c.RecycleAfterBurn = tc.recycle
			})
			data := pat(300*1024, 41)
			tb.run(t, func(p *sim.Proc) {
				burnOne(t, tb, p, "/iso/f", data)
				id := imageOf(t, tb, p, "/iso/f")
				if tc.recycle {
					readCheck(t, tb, p, "/iso/f", data) // from disc; starts the fill
					settle(p)
				}
				b, ok := tb.fs.Buckets.Resident(id)
				if !ok {
					t.Fatal("image not resident in the buffer")
				}
				addr, _ := tb.fs.Cat.Locate(id)
				before := slotImage(t, p, b, addr.Len)
				want := discImage(t, tb, p, addr)
				disc := tb.lib.Groups[tb.fs.groupHolding(addr.Tray)].Drives[addr.Pos].Disc()
				for _, off := range []int64{0, chunk.Size - 1, chunk.Size, addr.Len - 1} {
					disc.FlipByte(off)
					want[off] ^= 0xFF
				}
				if !bytes.Equal(discImage(t, tb, p, addr), want) {
					t.Fatal("the flips did not land on the disc")
				}
				if !bytes.Equal(slotImage(t, p, b, addr.Len), before) {
					t.Fatal("a flip on the disc reached the buffer copy")
				}
				if _, ok := tb.fs.Buckets.Resident(id); !ok {
					t.Fatal("image no longer resident")
				}
				readCheck(t, tb, p, "/iso/f", data)
			})
		})
	}
}

// TestRecycledSlotWriteLeavesDiscIntact: once a burned image's slot is
// recycled and written again, the disc, which still shares the slot's old
// chunks, reads the image it was burned with.
func TestRecycledSlotWriteLeavesDiscIntact(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	data := pat(300*1024, 42)
	tb.run(t, func(p *sim.Proc) {
		burnOne(t, tb, p, "/iso/r", data)
		id := imageOf(t, tb, p, "/iso/r")
		b, ok := tb.fs.Buckets.Resident(id)
		if !ok {
			t.Fatal("image not resident after its burn")
		}
		addr, _ := tb.fs.Cat.Locate(id)
		burned := slotImage(t, p, b, addr.Len)
		if err := tb.fs.Buckets.Recycle(p, b); err != nil {
			t.Fatalf("Recycle: %v", err)
		}
		nb, err := tb.fs.Buckets.OpenRaw(p, addr.Len)
		if err != nil || nb.Slot != b.Slot {
			t.Fatalf("OpenRaw took slot %v (err=%v), want the recycled slot %d", nb, err, b.Slot)
		}
		junk := pat(int(addr.Len), 43)
		for off := int64(0); off < addr.Len; off += 3000 { // unaligned, partial-chunk writes
			if err := nb.Backend().WriteAt(p, junk[off:min(off+3000, addr.Len)], off); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
		}
		if !bytes.Equal(slotImage(t, p, nb, addr.Len), junk) {
			t.Fatal("the recycled slot does not hold what was written to it")
		}
		if !bytes.Equal(discImage(t, tb, p, addr), burned) {
			t.Fatal("a write into the recycled slot reached the disc")
		}
		readCheck(t, tb, p, "/iso/r", data)
	})
}
