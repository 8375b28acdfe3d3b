package mv

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"testing"
	"testing/quick"
	"time"

	"ros/internal/blockdev"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/sim"
)

func newVol(env *sim.Env) *Volume {
	store := blockdev.New(env, 64<<20, blockdev.SSDProfile())
	return New(env, store, 0)
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func TestMknodStat(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := v.Mknod(p, "/data/exp/run1.csv", false); err != nil {
			t.Fatalf("Mknod: %v", err)
		}
		ix, err := v.Stat(p, "/data/exp/run1.csv")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if ix.Dir || ix.Path != "/data/exp/run1.csv" {
			t.Errorf("index = %+v", ix)
		}
		// Ancestors implicitly created as dirs.
		for _, d := range []string{"/data", "/data/exp"} {
			dix, err := v.Stat(p, d)
			if err != nil || !dix.Dir {
				t.Errorf("ancestor %s: %+v %v", d, dix, err)
			}
		}
		if _, err := v.Mknod(p, "/data/exp/run1.csv", false); !errors.Is(err, ErrExist) {
			t.Errorf("duplicate mknod: %v", err)
		}
	})
}

func TestStatMissing(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := v.Stat(p, "/nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Stat missing: %v", err)
		}
	})
}

func TestOpCostCharged(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	reg := obs.New(env)
	v.AttachObs(reg)
	inSim(t, env, func(p *sim.Proc) {
		start := p.Now()
		_, _ = v.Stat(p, "/x") // 2.5 ms even on miss (index lookup I/O)
		_, _ = v.Mknod(p, "/x", false)
		_ = v.AppendVersion(p, "/x", VersionEntry{Size: 10, Parts: []image.ID{image.NewID(1)}})
		elapsed := p.Now() - start
		want := 3 * DefaultOpCost
		if elapsed != want {
			t.Errorf("3 ops took %v, want %v (2.5ms each, Fig 7)", elapsed, want)
		}
	})
	if ops := reg.Counter("mv.ops").Value(); ops != 3 {
		t.Errorf("mv.ops = %d", ops)
	}
}

func TestVersionRingWrapsAt15(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := v.Mknod(p, "/f", false); err != nil {
			t.Fatalf("Mknod: %v", err)
		}
		for i := 1; i <= 20; i++ {
			err := v.AppendVersion(p, "/f", VersionEntry{
				Version: i, Size: int64(i), Parts: []image.ID{image.NewID(uint64(i))},
			})
			if err != nil {
				t.Fatalf("AppendVersion %d: %v", i, err)
			}
		}
		ix, _ := v.Stat(p, "/f")
		if len(ix.Entries) != MaxVersionEntries {
			t.Fatalf("ring holds %d entries, want %d", len(ix.Entries), MaxVersionEntries)
		}
		if cur := ix.Current(); cur == nil || cur.Version != 20 {
			t.Errorf("Current = %+v, want version 20", cur)
		}
		// Oldest retained is 6 (20-15+1); versions 1-5 overwritten.
		if ix.VersionAt(5) != nil {
			t.Error("version 5 still present after wrap")
		}
		if ix.VersionAt(6) == nil {
			t.Error("version 6 missing")
		}
	})
}

func TestAppendVersionAutoNumbers(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		_, _ = v.Mknod(p, "/f", false)
		_ = v.AppendVersion(p, "/f", VersionEntry{Size: 1})
		_ = v.AppendVersion(p, "/f", VersionEntry{Size: 2})
		ix, _ := v.Stat(p, "/f")
		if cur := ix.Current(); cur.Version != 2 || cur.Size != 2 {
			t.Errorf("Current = %+v", cur)
		}
	})
}

func TestForepart(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		_, _ = v.Mknod(p, "/f", false)
		big := make([]byte, MaxForepart+5000)
		if err := v.SetForepart(p, "/f", big); err != nil {
			t.Fatalf("SetForepart: %v", err)
		}
		ix, _ := v.Stat(p, "/f")
		if len(ix.Forepart) != MaxForepart {
			t.Errorf("forepart = %d bytes, want truncation to %d", len(ix.Forepart), MaxForepart)
		}
	})
}

func TestReadDirAndRemove(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		_, _ = v.Mknod(p, "/d/a", false)
		_, _ = v.Mknod(p, "/d/b", false)
		_, _ = v.Mknod(p, "/d/sub/c", false)
		names, err := v.ReadDir(p, "/d")
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "sub" {
			t.Errorf("ReadDir = %v", names)
		}
		if err := v.Remove(p, "/d/sub"); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("remove non-empty dir: %v", err)
		}
		if err := v.Remove(p, "/d/sub/c"); err != nil {
			t.Fatalf("remove file: %v", err)
		}
		if err := v.Remove(p, "/d/sub"); err != nil {
			t.Fatalf("remove empty dir: %v", err)
		}
		if v.Exists(p, "/d/sub") {
			t.Error("removed dir still exists")
		}
	})
}

func TestIndexJSONSizeMatchesPaper(t *testing.T) {
	// §4.2: "Its typical size is 388 bytes ... Each entry takes 40 bytes."
	ix := Index{
		Path: "/archive/experiments/2016/physics/run-0042/sensor-data.csv",
		Entries: []VersionEntry{
			{Version: 1, Size: 1048576, MTimeNS: 1234567890, Parts: []image.ID{image.NewID(7)}},
			{Version: 2, Size: 2097152, MTimeNS: 2234567890, Parts: []image.ID{image.NewID(8)}},
			{Version: 3, Size: 4194304, MTimeNS: 3234567890, Parts: []image.ID{image.NewID(9)}},
		},
	}
	b, err := json.Marshal(&ix)
	if err != nil {
		t.Fatal(err)
	}
	// A multi-version index with a realistic path should be a few hundred
	// bytes — the same order as the paper's 388.
	if len(b) < 150 || len(b) > 600 {
		t.Errorf("typical index JSON = %d bytes, want a few hundred (paper: 388)", len(b))
	}
}

func TestEstimateBytesMatchesPaper(t *testing.T) {
	// §4.2: "MV with 1 billion files and 1 billion directories only needs
	// about 2.3 TB, which is only 0.23% of the overall 1PB data capacity."
	got := EstimateBytes(1e9, 1e9)
	if got != 2304e9 {
		t.Errorf("EstimateBytes(1e9,1e9) = %d, want 2.304e12 (~2.3 TB)", got)
	}
	frac := float64(got) / 1e15
	if frac > 0.0024 || frac < 0.0022 {
		t.Errorf("MV fraction of 1 PB = %.4f%%, want ~0.23%%", frac*100)
	}
}

func TestSystemState(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	type daState struct{ Trays map[string]int }
	inSim(t, env, func(p *sim.Proc) {
		in := daState{Trays: map[string]int{"r0/L00/S0": 1}}
		if err := v.SaveState(p, "daindex", in); err != nil {
			t.Fatalf("SaveState: %v", err)
		}
		var out daState
		if err := v.LoadState(p, "daindex", &out); err != nil {
			t.Fatalf("LoadState: %v", err)
		}
		if out.Trays["r0/L00/S0"] != 1 {
			t.Errorf("state round trip: %+v", out)
		}
		var missing daState
		if err := v.LoadState(p, "nothere", &missing); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing state: %v", err)
		}
	})
}

func TestCheckpointAndLoad(t *testing.T) {
	env := sim.NewEnv()
	store := blockdev.New(env, 64<<20, blockdev.SSDProfile())
	v := New(env, store, time.Millisecond)
	inSim(t, env, func(p *sim.Proc) {
		_, _ = v.Mknod(p, "/a/b/file", false)
		_ = v.AppendVersion(p, "/a/b/file", VersionEntry{Size: 77, Parts: []image.ID{image.NewID(5)}})
		_ = v.SetForepart(p, "/a/b/file", []byte("head"))
		_ = v.SaveState(p, "k", map[string]int{"x": 1})
		if _, err := v.Checkpoint(p); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		// Reload from the backend as a fresh volume (post-crash).
		v2, err := Load(env, p, store, time.Millisecond)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		ix, err := v2.Stat(p, "/a/b/file")
		if err != nil {
			t.Fatalf("Stat after load: %v", err)
		}
		if cur := ix.Current(); cur == nil || cur.Size != 77 {
			t.Errorf("entry lost: %+v", cur)
		}
		if string(ix.Forepart) != "head" {
			t.Errorf("forepart lost: %q", ix.Forepart)
		}
		var st map[string]int
		if err := v2.LoadState(p, "k", &st); err != nil || st["x"] != 1 {
			t.Errorf("state lost: %v %v", st, err)
		}
	})
}

func TestLoadRejectsGarbage(t *testing.T) {
	env := sim.NewEnv()
	store := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	inSim(t, env, func(p *sim.Proc) {
		if _, err := Load(env, p, store, 0); err == nil {
			t.Error("Load of blank store succeeded")
		}
	})
}

func TestRestoreMergesVersions(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	v.Restore(Index{Path: "/f", Entries: []VersionEntry{{Version: 1, Size: 10}}})
	v.Restore(Index{Path: "/f", Entries: []VersionEntry{{Version: 2, Size: 20}}})
	inSim(t, env, func(p *sim.Proc) {
		ix, err := v.Stat(p, "/f")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if len(ix.Entries) != 2 || ix.Current().Version != 2 {
			t.Errorf("merged entries = %+v", ix.Entries)
		}
	})
}

func TestCounts(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(env)
	inSim(t, env, func(p *sim.Proc) {
		_, _ = v.Mknod(p, "/a/f1", false)
		_, _ = v.Mknod(p, "/a/f2", false)
		_, _ = v.Mknod(p, "/b", true)
	})
	if v.FileCount() != 2 {
		t.Errorf("FileCount = %d", v.FileCount())
	}
	// root + /a + /b
	if v.DirCount() != 3 {
		t.Errorf("DirCount = %d", v.DirCount())
	}
}

// Property: mknod(path) then stat(path) always succeeds and ancestors are
// directories, for arbitrary well-formed component names.
func TestPropertyMknodStat(t *testing.T) {
	f := func(a, b, c uint8) bool {
		env := sim.NewEnv()
		v := newVol(env)
		name := fmt.Sprintf("/p%d/q%d/r%d", a%5, b%5, c)
		ok := true
		env.Go("t", func(p *sim.Proc) {
			if _, err := v.Mknod(p, name, false); err != nil && !errors.Is(err, ErrExist) {
				ok = false
				return
			}
			ix, err := v.Stat(p, name)
			if err != nil || ix.Dir {
				ok = false
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the version ring never exceeds MaxVersionEntries and Current is
// always the highest version appended (once past the ring horizon).
func TestPropertyVersionRing(t *testing.T) {
	f := func(n uint8) bool {
		env := sim.NewEnv()
		v := newVol(env)
		count := int(n%40) + 1
		ok := true
		env.Go("t", func(p *sim.Proc) {
			_, _ = v.Mknod(p, "/f", false)
			for i := 1; i <= count; i++ {
				if err := v.AppendVersion(p, "/f", VersionEntry{Version: i, Size: int64(i)}); err != nil {
					ok = false
					return
				}
			}
			ix, _ := v.Stat(p, "/f")
			if len(ix.Entries) > MaxVersionEntries {
				ok = false
				return
			}
			if ix.Current().Version != count {
				ok = false
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: clean's fast path agrees with path.Clean("/"+s), on the edge
// cases and on random strings over "ab./".
func TestCleanMatchesPathClean(t *testing.T) {
	for _, s := range []string{"", "/", "//", ".", "..", "/.", "/..", "a/", "/a/", "/./", "/a/./b", "/a/../b",
		"a//b", "/bench/d0001/f000001.__v1", "//bench/d0001/f000001.__v1", "/.a/..b/..."} {
		if got := clean(s); got != path.Clean("/"+s) {
			t.Errorf("clean(%q) = %q, path.Clean gives %q", s, got, path.Clean("/"+s))
		}
	}
	f := func(raw []uint8) bool {
		b := make([]byte, len(raw)%16)
		for i := range b {
			b[i] = "ab./"[raw[i]%4]
		}
		return clean(string(b)) == path.Clean("/"+string(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
