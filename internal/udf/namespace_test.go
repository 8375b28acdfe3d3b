package udf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"runtime"
	"testing"

	"ros/internal/sim"
)

// memImage is a volume image held in memory: a Backend that never yields.
type memImage []byte

func (m memImage) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > int64(len(m)) {
		return fmt.Errorf("memImage: read [%d, +%d) past %d", off, len(buf), len(m))
	}
	copy(buf, m[off:])
	return nil
}

func (m memImage) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > int64(len(m)) {
		return fmt.Errorf("memImage: write [%d, +%d) past %d", off, len(buf), len(m))
	}
	copy(m[off:], buf)
	return nil
}

func (m memImage) Size() int64 { return int64(len(m)) }

// buildImage formats a 1 MB volume in memory, runs build on it and returns
// the blocks in use: an image as a burn would leave it.
func buildImage(t *testing.T, build func(p *sim.Proc, v *Volume) error) []byte {
	t.Helper()
	img := make(memImage, 1<<20)
	var used int64
	inSim(t, sim.NewEnv(), func(p *sim.Proc) {
		v, err := Format(p, img, [16]byte{7}, "image")
		if err == nil {
			err = build(p, v)
		}
		if err != nil {
			t.Fatalf("building image: %v", err)
		}
		used = v.UsedBytes()
	})
	return img[:used]
}

// scanImage opens img, walks it and reads every file the walk lists,
// returning the first error.
func scanImage(t *testing.T, img []byte) (files map[string][]byte, err error) {
	inSim(t, sim.NewEnv(), func(p *sim.Proc) {
		var v *Volume
		if v, err = Open(p, memImage(img)); err != nil {
			return
		}
		var list []Info
		if err = v.Walk(p, func(info Info) error { list = append(list, info); return nil }); err != nil {
			return
		}
		files = map[string][]byte{}
		for _, info := range list {
			if !info.IsDir {
				if files[info.Path], err = v.ReadFile(p, info.Path); err != nil {
					return
				}
			}
		}
	})
	return files, err
}

// TestCorruptRootEntryIsErrCorrupt flips one field of the root's entry block
// on a volume holding one file. Each of these used to panic the decoder.
func TestCorruptRootEntryIsErrCorrupt(t *testing.T) {
	img := buildImage(t, func(p *sim.Proc, v *Volume) error {
		return v.WriteFile(p, "/f", []byte("payload"))
	})
	root := rootBlock * BlockSize
	for _, tc := range []struct {
		name string
		set  func(entry []byte)
	}{
		{"target length 0xFFFF", func(b []byte) { binary.LittleEndian.PutUint16(b[18:], 0xFFFF) }},
		{"extent count 0xFFFF", func(b []byte) { binary.LittleEndian.PutUint16(b[12:], 0xFFFF) }},
		{"size 1<<62", func(b []byte) { binary.LittleEndian.PutUint64(b[4:], 1<<62) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Clone(img)
			tc.set(bad[root : root+BlockSize])
			if _, err := scanImage(t, bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("scan = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestWalkDirectoryCycle points /a/b's record back at /a. Walk (and so
// RecoverNamespace) used to recurse forever.
func TestWalkDirectoryCycle(t *testing.T) {
	img := buildImage(t, func(p *sim.Proc, v *Volume) error {
		return v.WriteFile(p, "/a/b/f", []byte("x"))
	})
	inSim(t, sim.NewEnv(), func(p *sim.Proc) {
		v, err := Open(p, memImage(img))
		if err != nil {
			t.Fatal(err)
		}
		var a entry
		aBlock, err := v.lookup(p, "/a", &a)
		if err != nil || len(a.extents) != 1 {
			t.Fatalf("lookup /a: %v, %d extents", err, len(a.extents))
		}
		binary.LittleEndian.PutUint32(img[int64(a.extents[0].start)*BlockSize:], aBlock) // /a's first record is b
	})
	_, err := scanImage(t, img)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Walk over a cycle = %v, want ErrCorrupt", err)
	}
	t.Log(err)
}

// Property: the clean-path fast path agrees with path.Clean("/"+s).
func TestCleanPathMatchesPathClean(t *testing.T) {
	inputs := []string{"", "/", "//", ".", "..", "/.", "/..", "a", "a/", "/a/", "/./", "/a/./b", "/a/../b",
		"a//b", "/a/b/", "/bench/d0001/f000001.__v1", "//bench/d0001/f000001.__v1", "/.a/..b/...", "/a/."}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = "ab./"[rng.Intn(4)]
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		want := path.Clean("/" + s)
		if got, err := cleanPath(s); got != want || err != nil {
			t.Errorf("cleanPath(%q) = %q, %v; path.Clean gives %q", s, got, err, want)
		}
		if isClean(s) != (s == want) {
			t.Errorf("isClean(%q) = %v, but path.Clean gives %q", s, isClean(s), want)
		}
	}
}

// TestNamespaceAllocBudget holds the host cost of the namespace walk that
// every bucket create and buffer read pays: creating a file (one block
// written) in a directory that already holds 63 to 162 files, then opening
// one in it. Decoding each directory into a list of named records cost 177
// and 198 allocations.
func TestNamespaceAllocBudget(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 64<<20)
	data := bytes.Repeat([]byte{0x5A}, BlockSize)
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("/bench/d0001/f%06d", i)
	}
	create := func(p *sim.Proc, name string) {
		w, err := v.CreateWriter(p, name)
		if err == nil {
			_, err = w.Write(p, data)
		}
		if err == nil {
			err = w.Close(p)
		}
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	inSim(t, env, func(p *sim.Proc) {
		for _, name := range names[:63] {
			create(p, name)
		}
		next := 63
		perCreate := testing.AllocsPerRun(100, func() { create(p, names[next]); next++ })
		perOpen := testing.AllocsPerRun(100, func() {
			if _, err := v.OpenReader(p, names[7]); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("CreateWriter+Write+Close: %v allocs, OpenReader: %v allocs", perCreate, perOpen)
		if perCreate > 4 {
			t.Errorf("CreateWriter+Write+Close allocates %v times, budget 4", perCreate)
		}
		if perOpen > 2 {
			t.Errorf("OpenReader allocates %v times, budget 2", perOpen)
		}
	})
}

// TestConcurrentNamespaceSharesNoScratch runs two processes that create,
// open and read files on one volume, each in its own directory, over a
// backend whose latency interleaves their calls. Every call takes its own
// scratch buffers; one handed back while its backend I/O is still in flight
// would be taken by the other process, and the bytes would differ.
func TestConcurrentNamespaceSharesNoScratch(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 16<<20)
	content := func(dir, i int) []byte {
		return bytes.Repeat([]byte{byte(1 + dir), byte(i)}, 1000+i*97)
	}
	name := func(dir, i int) string { return fmt.Sprintf("/d%d/file-%03d", dir, i) }
	inSim(t, env, func(p *sim.Proc) {
		for dir := 0; dir < 2; dir++ {
			if err := v.MkdirAll(p, fmt.Sprintf("/d%d", dir)); err != nil {
				t.Fatal(err)
			}
		}
	})
	const files = 40
	done := [2]int{}
	for dir := 0; dir < 2; dir++ {
		env.Go("namespace", func(p *sim.Proc) {
			for i := 0; i < files; i++ {
				w, err := v.CreateWriter(p, name(dir, i))
				if err == nil {
					_, err = w.Write(p, content(dir, i))
				}
				if err == nil {
					err = w.Close(p)
				}
				if err != nil {
					t.Errorf("create %s: %v", name(dir, i), err)
					return
				}
				done[dir] = i + 1
				// Read back a file of either process that is already closed.
				other := 1 - dir
				for _, f := range [][2]int{{dir, i}, {other, done[other] - 1}, {dir, i / 2}} {
					if f[1] < 0 {
						continue
					}
					r, err := v.OpenReader(p, name(f[0], f[1]))
					if err != nil {
						t.Errorf("open %s: %v", name(f[0], f[1]), err)
						return
					}
					got := make([]byte, r.Size())
					if n, err := r.ReadAt(p, got, 0); err != nil || !bytes.Equal(got[:n], content(f[0], f[1])) {
						t.Errorf("%s read back %d bytes that differ (err %v)", name(f[0], f[1]), n, err)
						return
					}
				}
			}
		})
	}
	env.Run()
	if done != [2]int{files, files} {
		t.Fatalf("processes created %v files, want %d each", done, files)
	}
	inSim(t, env, func(p *sim.Proc) {
		seen := 0
		err := v.Walk(p, func(info Info) error {
			var dir, i int
			if _, err := fmt.Sscanf(info.Path, "/d%d/file-%d", &dir, &i); err != nil {
				return nil // a directory
			}
			seen++
			got, err := v.ReadFile(p, info.Path)
			if err != nil || !bytes.Equal(got, content(dir, i)) {
				return fmt.Errorf("%s holds %d bytes that differ (err %v)", info.Path, len(got), err)
			}
			return nil
		})
		if err != nil || seen != 2*files {
			t.Errorf("Walk: %v, %d files seen, want %d", err, seen, 2*files)
		}
	})
}

// FuzzVolume loads the input as a volume image, opens it, walks it and reads
// every file the walk lists. Whatever the bytes, that must not panic, and no
// step may allocate more than a few times the image per entry it visits: a
// length read from the image never sizes an allocation by itself. The
// committed corpus holds images built as the tests build them: nested
// directories, a split file's link, a file of several extents.
func FuzzVolume(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		var ms runtime.MemStats
		allocated := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
		check := func(step string, entries int, since uint64) {
			if got, budget := allocated()-since, uint64(entries)*(8*uint64(len(img))+64<<10); got > budget {
				t.Fatalf("%s allocated %d bytes for a %d-byte image, budget %d", step, got, len(img), budget)
			}
		}
		env := sim.NewEnv()
		defer env.Close()
		env.Go("scan", func(p *sim.Proc) {
			start := allocated()
			v, err := Open(p, memImage(img))
			check("Open", 1, start)
			if err != nil {
				return
			}
			var list []Info
			start = allocated()
			_ = v.Walk(p, func(info Info) error {
				if list = append(list, info); len(list) == 1000 {
					return errors.New("enough")
				}
				return nil
			})
			check("Walk", len(list)+1, start)
			for _, info := range list {
				if !info.IsDir {
					start = allocated()
					_, _ = v.ReadFile(p, info.Path)
					check("ReadFile "+info.Path, 1, start)
				}
			}
		})
		env.Run()
	})
}
