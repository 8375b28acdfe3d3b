package olfs

import (
	"bytes"
	"testing"

	"ros/internal/bucket"
	"ros/internal/sim"
)

// TestMixedSetOverStaleSlot burns a 2+1 set of mixed lengths whose shorter
// image sits in a recycled slot that still holds its previous tenant's bytes
// past the image's used length. The discs read zeros there, so parity must
// be generated over zeros too: the tray scrubs clean, and the longer image,
// its disc lost, comes back byte for byte from parity and the shorter disc.
func TestMixedSetOverStaleSlot(t *testing.T) {
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		burnArray(t, tb, p, "/old", 800*1024, 800*1024) // recycled: slots 0 and 1 keep their bytes
		sizes := []int{100*1024 + 777, 700 * 1024}
		var paths []string
		var datas [][]byte
		for i, size := range sizes {
			path, data := "/new/f"+string(rune('0'+i)), pat(size, byte(50+i))
			if err := tb.fs.WriteFile(p, path, data); err != nil {
				t.Fatalf("WriteFile %s: %v", path, err)
			}
			if err := tb.fs.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			paths, datas = append(paths, path), append(datas, data)
		}
		short := imageOf(t, tb, p, paths[0])
		var sb *bucket.Bucket
		for _, b := range tb.fs.Buckets.Slots() {
			if b.ID == short {
				sb = b
			}
		}
		if sb == nil {
			t.Fatal("the short image has no slot")
		}
		used := usedBytes(sb)
		tail := make([]byte, 64<<10)
		if err := sb.Backend().ReadAt(p, tail, used); err != nil {
			t.Fatalf("slot read: %v", err)
		}
		if bytes.Count(tail, []byte{0}) == len(tail) {
			t.Fatal("the short image's slot holds no stale bytes past its used length; the test sees nothing")
		}

		c, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		long := imageOf(t, tb, p, paths[1])
		addr, _ := tb.fs.Cat.Locate(long)
		rep, err := tb.fs.ScrubTray(p, addr.Tray)
		if err != nil {
			t.Fatalf("ScrubTray: %v", err)
		}
		if len(rep.BadStrips) != 0 {
			t.Fatalf("a clean mixed-length set scrubs with bad strips at %v", rep.BadStrips)
		}

		burned := discImage(t, tb, p, addr)
		tb.lib.Disc(addr.Tray, addr.Pos).Fail()
		nb, err := tb.fs.RecoverImage(p, long)
		if err != nil {
			t.Fatalf("RecoverImage: %v", err)
		}
		if got := slotImage(t, p, nb, addr.Len); !bytes.Equal(got, burned) {
			t.Errorf("the recovered image differs from its lost disc, first at byte %d", firstDiff(got, burned))
		}
		for i, path := range paths {
			readCheck(t, tb, p, path, datas[i])
		}
	})
}
