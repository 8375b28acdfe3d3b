package udf

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"ros/internal/blockdev"
	"ros/internal/sim"
)

// newVol formats a volume of capacity bytes on an SSD-profile disk.
func newVol(t *testing.T, env *sim.Env, capacity int64) *Volume {
	t.Helper()
	d := blockdev.New(env, capacity, blockdev.SSDProfile())
	var v *Volume
	env.Go("format", func(p *sim.Proc) {
		var err error
		v, err = Format(p, d, [16]byte{1, 2, 3}, "test-vol")
		if err != nil {
			t.Errorf("Format: %v", err)
		}
	})
	env.Run()
	if v == nil {
		t.Fatal("Format did not produce a volume")
	}
	return v
}

// inSim runs fn to completion inside the simulation.
func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func TestWriteReadFile(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	data := []byte("long-term preserved data")
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteFile(p, "/a/b/c.txt", data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := v.ReadFile(p, "/a/b/c.txt")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("got %q, want %q", got, data)
		}
	})
}

func TestMkdirAllCreatesAncestors(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if err := v.MkdirAll(p, "/x/y/z"); err != nil {
			t.Fatalf("MkdirAll: %v", err)
		}
		for _, dir := range []string{"/x", "/x/y", "/x/y/z"} {
			info, err := v.Stat(p, dir)
			if err != nil {
				t.Fatalf("Stat(%s): %v", dir, err)
			}
			if !info.IsDir {
				t.Errorf("%s is not a directory", dir)
			}
		}
		// Idempotent.
		if err := v.MkdirAll(p, "/x/y/z"); err != nil {
			t.Errorf("repeated MkdirAll: %v", err)
		}
	})
}

func TestNotFound(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := v.ReadFile(p, "/missing"); !errors.Is(err, ErrNotFound) {
			t.Errorf("ReadFile missing: %v", err)
		}
		if _, err := v.Stat(p, "/a/b"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Stat missing: %v", err)
		}
	})
}

func TestReadDirSorted(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		for _, n := range []string{"zeta", "alpha", "mid"} {
			if err := v.WriteFile(p, "/d/"+n, []byte(n)); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}
		des, err := v.ReadDir(p, "/d")
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		if len(des) != 3 || des[0].Name != "alpha" || des[1].Name != "mid" || des[2].Name != "zeta" {
			t.Errorf("ReadDir = %+v", des)
		}
	})
}

func TestRootReadDir(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteFile(p, "/top.txt", []byte("t")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		des, err := v.ReadDir(p, "/")
		if err != nil {
			t.Fatalf("ReadDir(/): %v", err)
		}
		if len(des) != 1 || des[0].Name != "top.txt" {
			t.Errorf("root listing = %+v", des)
		}
	})
}

func TestUpdateInPlaceBeforeFinalize(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteFile(p, "/f", []byte("version-1")); err != nil {
			t.Fatalf("write v1: %v", err)
		}
		if err := v.WriteFile(p, "/f", []byte("version-2-longer")); err != nil {
			t.Fatalf("write v2: %v", err)
		}
		got, err := v.ReadFile(p, "/f")
		if err != nil || string(got) != "version-2-longer" {
			t.Errorf("got %q err %v", got, err)
		}
		// Directory must still hold exactly one entry.
		des, _ := v.ReadDir(p, "/")
		if len(des) != 1 {
			t.Errorf("root has %d entries after update", len(des))
		}
	})
}

func TestFinalizeMakesReadOnly(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteFile(p, "/keep", []byte("data")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if err := v.Finalize(p); err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		if err := v.WriteFile(p, "/new", []byte("x")); !errors.Is(err, ErrFinalized) {
			t.Errorf("write after finalize: %v", err)
		}
		if err := v.MkdirAll(p, "/nd"); !errors.Is(err, ErrFinalized) {
			t.Errorf("mkdir after finalize: %v", err)
		}
		got, err := v.ReadFile(p, "/keep")
		if err != nil || string(got) != "data" {
			t.Errorf("read after finalize: %q %v", got, err)
		}
	})
}

func TestOpenPersistedVolume(t *testing.T) {
	env := sim.NewEnv()
	d := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	id := [16]byte{9, 8, 7}
	inSim(t, env, func(p *sim.Proc) {
		v, err := Format(p, d, id, "persist")
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := v.WriteFile(p, "/deep/tree/file.bin", bytes.Repeat([]byte{0xAB}, 5000)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		// Re-open from the backend alone.
		v2, err := Open(p, d)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if v2.ImageID() != id {
			t.Errorf("identity lost: id=%v", v2.ImageID())
		}
		got, err := v2.ReadFile(p, "/deep/tree/file.bin")
		if err != nil || len(got) != 5000 || got[0] != 0xAB {
			t.Errorf("reopened read: len=%d err=%v", len(got), err)
		}
	})
}

func TestOpenUnformatted(t *testing.T) {
	env := sim.NewEnv()
	d := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	inSim(t, env, func(p *sim.Proc) {
		if _, err := Open(p, d); !errors.Is(err, ErrNotFormatted) {
			t.Errorf("Open blank: %v", err)
		}
	})
}

func TestNoSpace(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 64<<10) // 32 blocks
	inSim(t, env, func(p *sim.Proc) {
		err := v.WriteFile(p, "/big", make([]byte, 128<<10))
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("oversized write: %v", err)
		}
		// Volume still usable for smaller files.
		if err := v.WriteFile(p, "/small", []byte("fits")); err != nil {
			t.Errorf("small write after ENOSPC: %v", err)
		}
	})
}

func TestLinkFile(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteLink(p, "/data/file.part2", "image:0001/data/file"); err != nil {
			t.Fatalf("WriteLink: %v", err)
		}
		info, err := v.Stat(p, "/data/file.part2")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if !info.IsLink || info.LinkTarget != "image:0001/data/file" {
			t.Errorf("link info = %+v", info)
		}
		if err := v.WriteLink(p, "/data/file.part2", "x"); !errors.Is(err, ErrExist) {
			t.Errorf("duplicate link: %v", err)
		}
	})
}

func TestWalkVisitsEverything(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		files := []string{"/a/1", "/a/2", "/b/c/3", "/4"}
		for _, f := range files {
			if err := v.WriteFile(p, f, []byte(f)); err != nil {
				t.Fatalf("WriteFile(%s): %v", f, err)
			}
		}
		seen := map[string]bool{}
		err := v.Walk(p, func(info Info) error {
			seen[info.Path] = true
			return nil
		})
		if err != nil {
			t.Fatalf("Walk: %v", err)
		}
		for _, want := range []string{"/a", "/a/1", "/a/2", "/b", "/b/c", "/b/c/3", "/4"} {
			if !seen[want] {
				t.Errorf("Walk missed %s (saw %v)", want, seen)
			}
		}
	})
}

func TestLargeFileMultipleExtchain(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 8<<20)
	data := make([]byte, 3<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteFile(p, "/big.bin", data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := v.ReadFile(p, "/big.bin")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("large file round trip mismatch")
		}
	})
}

func TestWriteFileOverDirectoryFails(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		if err := v.MkdirAll(p, "/d"); err != nil {
			t.Fatalf("MkdirAll: %v", err)
		}
		if err := v.WriteFile(p, "/d", []byte("x")); !errors.Is(err, ErrIsDir) {
			t.Errorf("write over dir: %v", err)
		}
	})
}

func TestSliceBackend(t *testing.T) {
	env := sim.NewEnv()
	d := blockdev.New(env, 4<<20, blockdev.SSDProfile())
	inSim(t, env, func(p *sim.Proc) {
		// Two independent volumes carved out of one disk.
		s1 := NewSlice(d, 0, 1<<20)
		s2 := NewSlice(d, 1<<20, 1<<20)
		v1, err := Format(p, s1, [16]byte{1}, "one")
		if err != nil {
			t.Fatalf("Format s1: %v", err)
		}
		v2, err := Format(p, s2, [16]byte{2}, "two")
		if err != nil {
			t.Fatalf("Format s2: %v", err)
		}
		if err := v1.WriteFile(p, "/f", []byte("in-one")); err != nil {
			t.Fatalf("v1 write: %v", err)
		}
		if err := v2.WriteFile(p, "/f", []byte("in-two")); err != nil {
			t.Fatalf("v2 write: %v", err)
		}
		g1, _ := v1.ReadFile(p, "/f")
		g2, _ := v2.ReadFile(p, "/f")
		if string(g1) != "in-one" || string(g2) != "in-two" {
			t.Errorf("cross-talk between slices: %q %q", g1, g2)
		}
		// Out-of-range access is rejected.
		if err := s1.WriteAt(p, []byte("x"), 1<<20); err == nil {
			t.Error("slice write past end succeeded")
		}
	})
}

func TestSmallFileCostsTwoBlocks(t *testing.T) {
	// Paper §4.5: every file entry is at least 2KB, so a sub-2KB file costs
	// 2KB data + 2KB entry — bucket capacity can halve in the worst case.
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		before := v.UsedBytes()
		if err := v.WriteFile(p, "/tiny", []byte("x")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		grew := v.UsedBytes() - before
		if grew < 2*BlockSize {
			t.Errorf("1-byte file consumed %d, want >= %d (entry+data)", grew, 2*BlockSize)
		}
	})
}

// Property: a set of files with distinct generated paths all round-trip and
// Walk finds each of them.
func TestPropertyManyFilesRoundTrip(t *testing.T) {
	f := func(seeds []uint8) bool {
		if len(seeds) > 25 {
			seeds = seeds[:25]
		}
		env := sim.NewEnv()
		d := blockdev.New(env, 8<<20, blockdev.SSDProfile())
		ok := true
		env.Go("t", func(p *sim.Proc) {
			v, err := Format(p, d, [16]byte{}, "prop")
			if err != nil {
				ok = false
				return
			}
			want := map[string][]byte{}
			for i, s := range seeds {
				name := fmt.Sprintf("/dir%d/sub%d/file-%d", int(s)%3, int(s)%5, i)
				data := bytes.Repeat([]byte{s}, int(s)*17+1)
				if err := v.WriteFile(p, name, data); err != nil {
					ok = false
					return
				}
				want[name] = data
			}
			for name, data := range want {
				got, err := v.ReadFile(p, name)
				if err != nil || !bytes.Equal(got, data) {
					ok = false
					return
				}
			}
			found := 0
			_ = v.Walk(p, func(info Info) error {
				if !info.IsDir {
					if _, ok := want[info.Path]; ok {
						found++
					}
				}
				return nil
			})
			if found != len(want) {
				ok = false
			}
		})
		env.Run()
		return ok && !env.Deadlocked()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
