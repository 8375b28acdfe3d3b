package rack

import (
	"errors"
	"math"
	"testing"
	"time"

	"ros/internal/optical"
	"ros/internal/plc"
	"ros/internal/sim"
)

func smallConfig() Config {
	return Config{Rollers: 1, DriveGroups: 1, Media: optical.Media25, PopulateAll: true}
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func TestGeometryConstants(t *testing.T) {
	if TraysPerRoller != 510 {
		t.Errorf("TraysPerRoller = %d, want 510 (§3.2)", TraysPerRoller)
	}
	if DiscsPerRoller != 6120 {
		t.Errorf("DiscsPerRoller = %d, want 6120 (§3.2)", DiscsPerRoller)
	}
}

func TestPrototypePopulation(t *testing.T) {
	env := sim.NewEnv()
	lib, err := New(env, PrototypeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// §5.1: two rollers with 6120 100GB discs each = 1.224 PB raw.
	if got := lib.TotalDiscs(); got != 12240 {
		t.Errorf("TotalDiscs = %d, want 12240", got)
	}
	var raw int64
	for _, r := range lib.Rollers {
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				for _, d := range r.Tray(l, s).Discs {
					raw += d.Capacity()
				}
			}
		}
	}
	if raw != 12240*100e9 {
		t.Errorf("raw capacity = %d, want 1.224e15", raw)
	}
	if len(lib.Groups) != 2 || len(lib.Groups[0].Drives) != 12 {
		t.Errorf("drive layout: %d groups", len(lib.Groups))
	}
}

func TestConfigValidation(t *testing.T) {
	env := sim.NewEnv()
	if _, err := New(env, Config{Rollers: 0, DriveGroups: 1}); err == nil {
		t.Error("0 rollers accepted")
	}
	if _, err := New(env, Config{Rollers: 3, DriveGroups: 1}); err == nil {
		t.Error("3 rollers accepted")
	}
	if _, err := New(env, Config{Rollers: 1, DriveGroups: 5}); err == nil {
		t.Error("5 drive groups accepted")
	}
}

// table3Scenario measures load/unload with a 3-step roller rotation before
// each composite, matching the paper's measurement conditions.
func table3Scenario(t *testing.T, layer int) (load, unload time.Duration) {
	env := sim.NewEnv()
	lib, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	inSim(t, env, func(p *sim.Proc) {
		id := TrayID{Roller: 0, Layer: layer, Slot: 3}
		start := p.Now()
		if err := lib.LoadArray(p, id, 0); err != nil {
			t.Errorf("LoadArray: %v", err)
			return
		}
		load = p.Now() - start
		// Rotate the roller away (other activity) so unload pays a 3-step
		// rotation like the load did.
		if _, err := lib.Rollers[0].Ctl.Exec(p, plc.Command{Op: plc.OpRotate, Args: []int{0}}); err != nil {
			t.Errorf("rotate away: %v", err)
		}
		start = p.Now()
		if err := lib.UnloadArray(p, 0, nil); err != nil {
			t.Errorf("UnloadArray: %v", err)
			return
		}
		unload = p.Now() - start
	})
	return load, unload
}

func TestTable3UppermostLayer(t *testing.T) {
	load, unload := table3Scenario(t, LayersPerRoller-1)
	if math.Abs(load.Seconds()-68.7) > 0.3 {
		t.Errorf("load(top) = %.2fs, want 68.7s (Table 3)", load.Seconds())
	}
	if math.Abs(unload.Seconds()-81.7) > 0.3 {
		t.Errorf("unload(top) = %.2fs, want 81.7s (Table 3)", unload.Seconds())
	}
}

func TestTable3LowestLayer(t *testing.T) {
	load, unload := table3Scenario(t, 0)
	if math.Abs(load.Seconds()-73.2) > 0.3 {
		t.Errorf("load(bottom) = %.2fs, want 73.2s (Table 3)", load.Seconds())
	}
	if math.Abs(unload.Seconds()-86.5) > 0.3 {
		t.Errorf("unload(bottom) = %.2fs, want 86.5s (Table 3)", unload.Seconds())
	}
}

func TestOverlapSchedulingSavesTime(t *testing.T) {
	// §3.2: parallel roller/arm scheduling "can save up to almost 10 seconds".
	measure := func(overlap bool) time.Duration {
		env := sim.NewEnv()
		cfg := smallConfig()
		cfg.Overlap = overlap
		lib, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var unload time.Duration
		inSim(t, env, func(p *sim.Proc) {
			id := TrayID{Roller: 0, Layer: 40, Slot: 3}
			if err := lib.LoadArray(p, id, 0); err != nil {
				t.Errorf("LoadArray: %v", err)
				return
			}
			if _, err := lib.Rollers[0].Ctl.Exec(p, plc.Command{Op: plc.OpRotate, Args: []int{0}}); err != nil {
				t.Errorf("rotate: %v", err)
			}
			start := p.Now()
			if err := lib.UnloadArray(p, 0, nil); err != nil {
				t.Errorf("UnloadArray: %v", err)
				return
			}
			unload = p.Now() - start
		})
		return unload
	}
	serial := measure(false)
	overlapped := measure(true)
	saved := serial - overlapped
	if saved < 2*time.Second || saved > 10*time.Second {
		t.Errorf("overlap saved %v, want 2-10s (rotate+fanout hidden under collect)", saved)
	}
}

func TestLoadMovesDiscsIntoDrives(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	inSim(t, env, func(p *sim.Proc) {
		id := TrayID{Roller: 0, Layer: 84, Slot: 0}
		tray, _ := lib.Tray(id)
		want := make([]*optical.Disc, len(tray.Discs))
		copy(want, tray.Discs)
		if err := lib.LoadArray(p, id, 0); err != nil {
			t.Fatalf("LoadArray: %v", err)
		}
		if !tray.Empty() {
			t.Error("tray not empty after load")
		}
		g := lib.Groups[0]
		if !g.Loaded() || *g.Source != id {
			t.Errorf("group source = %v", g.Source)
		}
		for i, d := range g.Drives {
			if d.Disc() != want[i] {
				t.Errorf("drive %d holds wrong disc", i)
			}
		}
		// Unload restores the exact array to the same tray.
		if err := lib.UnloadArray(p, 0, nil); err != nil {
			t.Fatalf("UnloadArray: %v", err)
		}
		if len(tray.Discs) != 12 {
			t.Fatalf("tray has %d discs after unload", len(tray.Discs))
		}
		for i := range want {
			if tray.Discs[i] != want[i] {
				t.Errorf("disc %d changed identity", i)
			}
		}
		for _, d := range g.Drives {
			if d.Loaded() {
				t.Error("drive still loaded after unload")
			}
		}
	})
}

func TestUnloadToDifferentTray(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 1, Media: optical.Media25})
	inSim(t, env, func(p *sim.Proc) {
		src := TrayID{Roller: 0, Layer: 10, Slot: 1}
		dst := TrayID{Roller: 0, Layer: 20, Slot: 2}
		tray, _ := lib.Tray(src)
		for i := 0; i < 12; i++ {
			tray.Discs = append(tray.Discs, optical.NewDisc("x", optical.Media25))
		}
		if err := lib.LoadArray(p, src, 0); err != nil {
			t.Fatalf("LoadArray: %v", err)
		}
		if err := lib.UnloadArray(p, 0, &dst); err != nil {
			t.Fatalf("UnloadArray: %v", err)
		}
		dtray, _ := lib.Tray(dst)
		if len(dtray.Discs) != 12 {
			t.Errorf("destination tray has %d discs", len(dtray.Discs))
		}
	})
}

func TestLoadEmptyTrayFails(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 1, Media: optical.Media25})
	inSim(t, env, func(p *sim.Proc) {
		err := lib.LoadArray(p, TrayID{Roller: 0, Layer: 0, Slot: 0}, 0)
		if !errors.Is(err, ErrTrayEmpty) {
			t.Errorf("load empty tray: %v", err)
		}
	})
}

func TestLoadIntoLoadedGroupFails(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.LoadArray(p, TrayID{Roller: 0, Layer: 84, Slot: 0}, 0); err != nil {
			t.Fatalf("first load: %v", err)
		}
		err := lib.LoadArray(p, TrayID{Roller: 0, Layer: 83, Slot: 0}, 0)
		if !errors.Is(err, ErrGroupBusy) {
			t.Errorf("second load: %v", err)
		}
	})
}

func TestUnloadEmptyGroupFails(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.UnloadArray(p, 0, nil); !errors.Is(err, ErrGroupEmpty) {
			t.Errorf("unload empty group: %v", err)
		}
	})
}

func TestBadAddresses(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	for _, id := range []TrayID{
		{Roller: 1, Layer: 0, Slot: 0},
		{Roller: 0, Layer: 85, Slot: 0},
		{Roller: 0, Layer: 0, Slot: 6},
		{Roller: -1, Layer: 0, Slot: 0},
	} {
		if _, err := lib.Tray(id); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Tray(%v): %v", id, err)
		}
	}
	if _, err := lib.Group(1); !errors.Is(err, ErrNoSuchGroup) {
		t.Errorf("Group(1): %v", err)
	}
}

func TestSwapArray(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	inSim(t, env, func(p *sim.Proc) {
		a := TrayID{Roller: 0, Layer: 84, Slot: 0}
		b := TrayID{Roller: 0, Layer: 50, Slot: 3}
		if err := lib.SwapArray(p, 0, a); err != nil {
			t.Fatalf("swap into empty group: %v", err)
		}
		start := p.Now()
		if err := lib.SwapArray(p, 0, b); err != nil {
			t.Fatalf("swap with unload: %v", err)
		}
		// §3.3: "When all drives are not free, it will take another 70
		// seconds to unload discs" — a swap is unload (~82-86s) + load (~70s).
		d := p.Now() - start
		if d < 140*time.Second || d > 170*time.Second {
			t.Errorf("swap took %v, want ~150s (unload+load)", d)
		}
		if *lib.Groups[0].Source != b {
			t.Errorf("group source = %v, want %v", lib.Groups[0].Source, b)
		}
		ta, _ := lib.Tray(a)
		if len(ta.Discs) != 12 {
			t.Error("original tray not restored")
		}
	})
}

func TestTwoGroupsShareOneArm(t *testing.T) {
	// Two groups loading from the same roller must serialize on the arm.
	env := sim.NewEnv()
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25, PopulateAll: true})
	for gi := 0; gi < 2; gi++ {
		gi := gi
		env.Go("loader", func(p *sim.Proc) {
			id := TrayID{Roller: 0, Layer: 84, Slot: gi}
			if err := lib.LoadArray(p, id, gi); err != nil {
				t.Errorf("LoadArray(%d): %v", gi, err)
			}
		})
	}
	env.Run()
	// Each load is ~68-69s; serialized on one arm: >= 130s.
	if env.Now() < 130*time.Second {
		t.Errorf("two loads finished in %v — arm not serialized", env.Now())
	}
}

func TestTwoRollersLoadInParallel(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, Config{Rollers: 2, DriveGroups: 2, Media: optical.Media25, PopulateAll: true})
	for gi := 0; gi < 2; gi++ {
		gi := gi
		env.Go("loader", func(p *sim.Proc) {
			id := TrayID{Roller: gi, Layer: 84, Slot: 3}
			if err := lib.LoadArray(p, id, gi); err != nil {
				t.Errorf("LoadArray(%d): %v", gi, err)
			}
		})
	}
	env.Run()
	// Independent arms: both finish in ~one load time.
	if env.Now() > 80*time.Second {
		t.Errorf("parallel roller loads took %v, want ~69s", env.Now())
	}
}

func TestColdDiscSpinUpOnFirstRead(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.LoadArray(p, TrayID{Roller: 0, Layer: 84, Slot: 0}, 0); err != nil {
			t.Fatalf("LoadArray: %v", err)
		}
		dr := lib.Groups[0].Drives[0]
		start := p.Now()
		buf := make([]byte, 4096)
		if err := dr.ReadAt(p, buf, 0); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		// First read pays spin-up (~2s).
		if d := p.Now() - start; d < optical.SpinUpTime {
			t.Errorf("first read took %v, want >= spin-up 2s", d)
		}
		start = p.Now()
		if err := dr.ReadAt(p, buf, 4096); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if d := p.Now() - start; d > 500*time.Millisecond {
			t.Errorf("second read took %v, want warm", d)
		}
	})
}

// TestParseTrayIDRoundTrip checks that ParseTrayID inverts TrayID.String over
// the whole geometry and rejects what String never prints.
func TestParseTrayIDRoundTrip(t *testing.T) {
	for r := 0; r < 2; r++ {
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				id := TrayID{Roller: r, Layer: l, Slot: s}
				got, err := ParseTrayID(id.String())
				if err != nil || got != id {
					t.Fatalf("ParseTrayID(%q) = %v, %v; want %v", id.String(), got, err, id)
				}
			}
		}
	}
	if got, err := ParseTrayID("r0/L7/S2"); err != nil || got != (TrayID{Layer: 7, Slot: 2}) {
		t.Errorf("ParseTrayID without the zero pad = %v, %v", got, err)
	}
	for _, bad := range []string{"", "r0/L07", "r0/L07/S1/x", "0/L07/S1", "r0/l07/S1",
		"r0/L07/S", "r0/L07/S1x", "r-1/L07/S1", "r0/L07/S1 x", "L07/r0/S1"} {
		if id, err := ParseTrayID(bad); err == nil {
			t.Errorf("ParseTrayID(%q) = %v, want an error", bad, id)
		}
	}
}

// TestBackToBackUnloadsShareOneArm is the regression test for two unloads on
// one roller issued without a yield between them: the first unload's arm
// return claims the arm motor before UnloadArray returns, so the second
// unload's COLLECT waits for the arm to be back atop the drives instead of
// failing that precondition.
func TestBackToBackUnloadsShareOneArm(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25, PopulateAll: true})
	a := TrayID{Roller: 0, Layer: 84, Slot: 0}
	b := TrayID{Roller: 0, Layer: 60, Slot: 3}
	var second time.Duration
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.LoadArray(p, a, 0); err != nil {
			t.Fatalf("LoadArray(a): %v", err)
		}
		if err := lib.LoadArray(p, b, 1); err != nil {
			t.Fatalf("LoadArray(b): %v", err)
		}
		if err := lib.UnloadArray(p, 0, nil); err != nil {
			t.Fatalf("first unload: %v", err)
		}
		start := p.Now()
		if err := lib.UnloadArray(p, 1, nil); err != nil {
			t.Fatalf("back-to-back unload: %v", err)
		}
		second = p.Now() - start
	})
	for _, id := range []TrayID{a, b} {
		if tr, _ := lib.Tray(id); !tr.Full() {
			t.Errorf("tray %v holds %d discs after the unloads, want 12", id, len(tr.Discs))
		}
	}
	if lib.Groups[0].Loaded() || lib.Groups[1].Loaded() {
		t.Error("a group is still loaded")
	}
	// The second unload waits out the first one's arm return first.
	if lift := plc.DefaultTiming().ArmLift; second < lift {
		t.Errorf("second unload took %v, want at least the %v arm return it queues behind", second, lift)
	}
	if s := lib.Rollers[0].Ctl.Sensors(); s.ArmLayer != LayersPerRoller || s.ArmCarrying {
		t.Errorf("arm at layer %d (carrying=%v) after the unloads, want atop the drives", s.ArmLayer, s.ArmCarrying)
	}
}
