package olfs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/sim"
)

// TestReservedNamesRefused: every entry point that creates a name refuses a
// path that could alias a name OLFS writes inside images, so a client file
// can never take the place of another file's version. Before the check, a
// file named /report.__v2 was stored under the name of /report's version 2
// and ReadFile("/report") returned its bytes.
func TestReservedNamesRefused(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	v2 := pat(3000, 2)
	tb.run(t, func(p *sim.Proc) {
		for _, data := range [][]byte{pat(2000, 1), v2} {
			if err := tb.fs.WriteFile(p, "/report", data); err != nil {
				t.Fatalf("WriteFile /report: %v", err)
			}
		}
		for _, path := range []string{"/report.__v2", "/report.__v1", "/a.__v3/b", "/report.__rosprev1", "/d/x.__rosprevious"} {
			if err := tb.fs.WriteFile(p, path, pat(100, 9)); !errors.Is(err, ErrReservedName) {
				t.Errorf("WriteFile %s: %v, want ErrReservedName", path, err)
			}
			if err := tb.fs.Mkdir(p, path); !errors.Is(err, ErrReservedName) {
				t.Errorf("Mkdir %s: %v, want ErrReservedName", path, err)
			}
		}
		readCheck(t, tb, p, "/report", v2)
		// Names that only look alike are ordinary files.
		for _, path := range []string{"/x/y.__v2x", "/report.__v", "/a.__v3b/c", "/r.__v2.txt"} {
			if err := tb.fs.WriteFile(p, path, pat(100, 7)); err != nil {
				t.Errorf("WriteFile %s: %v", path, err)
			}
		}
	})
}

// TestRecoverSplitFileFromDiscs: a file split over three or more images, in
// two versions, comes back byte-equal from the discs alone after MV is
// replaced by an empty one.
func TestRecoverSplitFileFromDiscs(t *testing.T) {
	tb := coldBed(t, nil)
	v1, v2 := pat(2500<<10, 5), pat(2200<<10, 6)
	tb.run(t, func(p *sim.Proc) {
		for _, data := range [][]byte{v1, v2} {
			if err := tb.fs.WriteFile(p, "/big", data); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}
		ix, err := tb.fs.MV.Stat(p, "/big")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		for _, ve := range ix.Entries {
			if len(ve.Parts) < 3 {
				t.Fatalf("version %d lies in %d images, want at least 3", ve.Version, len(ve.Parts))
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
		tb.fs.MV = mv.New(tb.env, tb.mvS, mv.DefaultOpCost)
		tb.fs.Cat = image.NewCatalog()
		if err := tb.fs.RecoverNamespace(p, trays); err != nil {
			t.Fatalf("RecoverNamespace: %v", err)
		}
		readCheck(t, tb, p, "/big", v2)
		fr, err := tb.fs.OpenFileVersion(p, "/big", 1)
		if err != nil {
			t.Fatalf("OpenFileVersion 1: %v", err)
		}
		got := make([]byte, fr.Size())
		if n, err := fr.ReadAt(p, got, 0); err != nil || !bytes.Equal(got[:n], v1) {
			t.Fatalf("version 1 after recovery: %d of %d bytes, %v", n, len(v1), err)
		}
	})
}

// TestAssemblePartsOrdersByLinkIndex: parts come back in the order of the
// link index their images carry, whatever the order of the image IDs.
func TestAssemblePartsOrdersByLinkIndex(t *testing.T) {
	want := []image.ID{image.NewID(9), image.NewID(3), image.NewID(5)}
	imgs := make(map[image.ID]*scannedFile)
	for k, id := range want {
		imgs[id] = &scannedFile{img: id, size: int64(100 * (k + 1)), part: k}
	}
	ve := assembleParts(imgs, 1)
	if !slices.Equal(ve.Parts, want) || !slices.Equal(ve.PartLens, []int64{100, 200, 300}) || ve.Size != 600 {
		t.Errorf("assembleParts = %v %v size %d, want %v [100 200 300] size 600", ve.Parts, ve.PartLens, ve.Size, want)
	}
}

// FuzzRecoverNames: recovery reads file names off disc images, so its
// parsers must invert the names OLFS writes there. For every path checkName
// admits, internalName(path, v) parses back to (path, v), and the link
// beside part k of it back to that name and k.
func FuzzRecoverNames(f *testing.F) {
	for _, path := range []string{"/report", "/a.__v/b", "/d/.__v", "/"} {
		f.Add(path, 2, 1)
	}
	f.Fuzz(func(t *testing.T, path string, v, k int) {
		if checkName(path) != nil || v < 1 || k < 1 {
			return
		}
		name := internalName(path, v)
		if base, got := parseVersionName(name); base != path || got != v {
			t.Fatalf("parseVersionName(%q) = %q, %d; want %q, %d", name, base, got, path, v)
		}
		link := linkName(name, k)
		if base, got, ok := cutNumber(link, linkMark); !ok || base != name || got != k {
			t.Fatalf("link %q parses as %q, %d, %v; want %q, %d", link, base, got, ok, name, k)
		}
	})
}
