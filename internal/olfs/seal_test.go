package olfs

import (
	"bytes"
	"testing"

	"ros/internal/sim"
)

// TestSealClosesOpenWriters: a writer that holds a subfile in the open bucket
// when another request seals it must not write into the sealed image. Its
// subfile is closed by the seal, its next bytes go to the next bucket behind
// a split link, and its Close commits only the index entry. The sealed image
// keeps the bytes it had at the seal, and the burned tray's parity matches
// its discs. (Close used to flush the writer's tail block, entry and
// descriptor into the sealed image while its burn was running.)
func TestSealClosesOpenWriters(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	head, rest, other := pat(1914, 1), pat(1507, 2), pat(300<<10, 3)
	tb.run(t, func(p *sim.Proc) {
		wa, err := tb.fs.CreateFile(p, "/seal/a")
		if err != nil {
			t.Fatalf("CreateFile: %v", err)
		}
		if _, err := wa.Write(p, head); err != nil {
			t.Fatalf("Write: %v", err)
		}
		sealed := tb.fs.cur
		if err := tb.fs.WriteFile(p, "/seal/other", other); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		burn, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if !sealed.Vol.Finalized() {
			t.Fatal("FlushAndBurn did not seal the open bucket")
		}
		atSeal := make([]byte, tb.fs.cfg.BucketBytes)
		if err := sealed.Backend().ReadAt(p, atSeal, 0); err != nil {
			t.Fatalf("reading the sealed image: %v", err)
		}
		// The writer goes on after the seal, while the image burns.
		if _, err := wa.Write(p, rest); err != nil {
			t.Fatalf("Write after the seal: %v", err)
		}
		if err := wa.Close(p); err != nil {
			t.Fatalf("Close after the seal: %v", err)
		}
		if _, err := burn.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		now := make([]byte, len(atSeal))
		if err := sealed.Backend().ReadAt(p, now, 0); err != nil {
			t.Fatalf("reading the sealed image: %v", err)
		}
		if i := firstDiff(atSeal, now); i >= 0 {
			t.Errorf("the sealed image changed after its seal, first at byte %d", i)
		}
		addr, ok := tb.fs.Cat.Locate(sealed.ID)
		if !ok {
			t.Fatal("the sealed image is not on a disc")
		}
		rep, err := tb.fs.ScrubTray(p, addr.Tray)
		if err != nil {
			t.Fatalf("ScrubTray: %v", err)
		}
		if len(rep.BadStrips) != 0 {
			t.Errorf("scrub of the burned tray: %d bad strips", len(rep.BadStrips))
		}
		ix, err := tb.fs.MV.Stat(p, "/seal/a")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		cur := ix.Current()
		if len(cur.Parts) != 2 || cur.Parts[0] != sealed.ID || cur.PartLens[0] != int64(len(head)) {
			t.Errorf("/seal/a parts %v lens %v, want its first %d bytes in the sealed image %s",
				cur.Parts, cur.PartLens, len(head), sealed.ID)
		}
		for path, want := range map[string][]byte{"/seal/a": append(head, rest...), "/seal/other": other} {
			if got, err := tb.fs.ReadFile(p, path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("ReadFile %s: %d bytes, err %v; want %d bytes", path, len(got), err, len(want))
			}
		}
		if n := tb.fs.m.splitFiles.Value(); n != 1 {
			t.Errorf("olfs.split_files = %d, want 1 link for the writer's second part", n)
		}
	})
}

// firstDiff returns the first offset at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
