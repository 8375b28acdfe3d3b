package rack

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ros/internal/optical"
	"ros/internal/plc"
	"ros/internal/sim"
)

func smallConfig() Config {
	return Config{Rollers: 1, DriveGroups: 1, Media: optical.Media25}
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

// TestDiscIDsKeepTheirFormat: every disc of the prototype, built when Tray
// first reaches its tray, is named exactly as fmt.Sprintf("r%d-L%02d-S%d-D%02d")
// named it. The names are hashed (optical's latent-error placement), so a
// byte that moved would move injected faults.
func TestDiscIDsKeepTheirFormat(t *testing.T) {
	lib, err := New(sim.NewEnv(), PrototypeConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ri := range lib.Rollers {
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				tray, err := lib.Tray(TrayID{Roller: ri, Layer: l, Slot: s})
				if err != nil {
					t.Fatal(err)
				}
				for d, disc := range tray.Discs {
					if want := fmt.Sprintf("r%d-L%02d-S%d-D%02d", ri, l, s, d); disc.ID != want {
						t.Fatalf("disc %s, want %s", disc.ID, want)
					}
					n++
				}
			}
		}
	}
	if n != 12240 {
		t.Fatalf("checked %d discs, want 12240", n)
	}
	for _, v := range []int{0, 7, 10, 99, 100, 1234} {
		if got, want := string(pad2(nil, v)), fmt.Sprintf("%02d", v); got != want {
			t.Errorf("pad2(%d) = %q, want %q", v, got, want)
		}
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
	for ri := range lib.Rollers {
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				tray, err := lib.Tray(TrayID{Roller: ri, Layer: l, Slot: s})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range tray.Discs {
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

// TestBlankTrayBuildsOnce: a tray nothing has touched builds its discs on
// the first Tray and returns the same discs, pointer for pointer, after.
func TestBlankTrayBuildsOnce(t *testing.T) {
	lib, err := New(sim.NewEnv(), PrototypeConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := TrayID{Roller: 1, Layer: 7, Slot: 3}
	first, err := lib.Tray(id)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != id || len(first.Discs) != DiscsPerTray || !first.Full() {
		t.Fatalf("first touch: tray %v with %d discs", first.ID, len(first.Discs))
	}
	want := append([]*optical.Disc(nil), first.Discs...)
	again, _ := lib.Tray(id)
	if again != first {
		t.Error("a second Tray returned another *Tray")
	}
	for d, disc := range again.Discs {
		if disc != want[d] {
			t.Errorf("disc %d rebuilt on the second touch", d)
		}
		if name := fmt.Sprintf("r1-L07-S3-D%02d", d); disc.ID != name || disc.Type != optical.Media100 || !disc.Blank() {
			t.Errorf("disc %d: %s %v blank=%v, want a blank %s", d, disc.ID, disc.Type, disc.Blank(), name)
		}
	}
	if got := lib.BuiltTrays(); len(got) != 1 || got[0] != id {
		t.Errorf("built trays %v, want only %v", got, id)
	}
}

// TestBlankTrayLoadRoundTrips: loading a tray nothing has touched moves its
// freshly built discs into the drives, and unloading puts the same discs
// back.
func TestBlankTrayLoadRoundTrips(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, smallConfig())
	id := TrayID{Roller: 0, Layer: 40, Slot: 5}
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.LoadArray(p, id, 0); err != nil {
			t.Fatalf("LoadArray: %v", err)
		}
		var want []*optical.Disc
		for d, dr := range lib.Groups[0].Drives {
			disc := dr.Disc()
			if name := fmt.Sprintf("r0-L40-S5-D%02d", d); disc == nil || disc.ID != name {
				t.Fatalf("drive %d holds %v, want disc %s", d, disc, name)
			}
			if lib.Disc(id, d) != disc {
				t.Errorf("Disc(%v, %d) is not the loaded disc", id, d)
			}
			want = append(want, disc)
		}
		if err := lib.UnloadArray(p, 0, nil); err != nil {
			t.Fatalf("UnloadArray: %v", err)
		}
		tray, _ := lib.Tray(id)
		if len(tray.Discs) != DiscsPerTray {
			t.Fatalf("tray holds %d discs after unload", len(tray.Discs))
		}
		for d := range want {
			if tray.Discs[d] != want[d] {
				t.Errorf("disc %d changed identity", d)
			}
		}
	})
}

// TestTotalDiscsBuildsNothing: the count covers blank trays without building
// them, and follows discs that leave a built tray.
func TestTotalDiscsBuildsNothing(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, PrototypeConfig())
	if got := lib.TotalDiscs(); got != 2*DiscsPerRoller {
		t.Errorf("TotalDiscs = %d, want %d", got, 2*DiscsPerRoller)
	}
	if got := lib.BuiltTrays(); len(got) != 0 {
		t.Errorf("TotalDiscs built trays %v", got)
	}
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.LoadArray(p, TrayID{Roller: 0, Layer: 84, Slot: 0}, 0); err != nil {
			t.Fatal(err)
		}
	})
	if got := lib.TotalDiscs(); got != 2*DiscsPerRoller-DiscsPerTray {
		t.Errorf("TotalDiscs with one array in the drives = %d, want %d", got, 2*DiscsPerRoller-DiscsPerTray)
	}
	if got := lib.BuiltTrays(); len(got) != 1 {
		t.Errorf("built trays %v, want the loaded one alone", got)
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
		dtray, _ := lib.Tray(dst)
		tray.Discs, dtray.Discs = nil, nil
		for i := 0; i < 12; i++ {
			tray.Discs = append(tray.Discs, optical.NewDisc("x", optical.Media25))
		}
		if err := lib.LoadArray(p, src, 0); err != nil {
			t.Fatalf("LoadArray: %v", err)
		}
		if err := lib.UnloadArray(p, 0, &dst); err != nil {
			t.Fatalf("UnloadArray: %v", err)
		}
		if len(dtray.Discs) != 12 {
			t.Errorf("destination tray has %d discs", len(dtray.Discs))
		}
	})
}

func TestLoadEmptyTrayFails(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 1, Media: optical.Media25})
	id := TrayID{Roller: 0, Layer: 0, Slot: 0}
	tray, _ := lib.Tray(id)
	tray.Discs = nil
	inSim(t, env, func(p *sim.Proc) {
		err := lib.LoadArray(p, id, 0)
		if !errors.Is(err, ErrTrayEmpty) {
			t.Errorf("load empty tray: %v", err)
		}
	})
	if n := lib.Obs().Histogram("rack.load.latency").Count(); n != 0 {
		t.Errorf("rack.load.latency samples = %d after a failed load, want 0", n)
	}
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
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25})
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
	lib, _ := New(env, Config{Rollers: 2, DriveGroups: 2, Media: optical.Media25})
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
// the whole geometry and rejects what String never prints, and that Number
// gives every tray a distinct number below MaxTrays and -1 to any other
// address.
func TestParseTrayIDRoundTrip(t *testing.T) {
	seen := make(map[int]TrayID)
	for r := 0; r < MaxRollers; r++ {
		for l := 0; l < LayersPerRoller; l++ {
			for s := 0; s < SlotsPerLayer; s++ {
				id := TrayID{Roller: r, Layer: l, Slot: s}
				got, err := ParseTrayID(id.String())
				if err != nil || got != id {
					t.Fatalf("ParseTrayID(%q) = %v, %v; want %v", id.String(), got, err, id)
				}
				n := id.Number()
				if prev, dup := seen[n]; dup || n < 0 || n >= MaxTrays {
					t.Fatalf("%v numbered %d (%v had it: %v)", id, n, prev, dup)
				}
				seen[n] = id
			}
		}
	}
	for _, id := range []TrayID{{Roller: 2}, {Layer: LayersPerRoller}, {Slot: SlotsPerLayer}, {Roller: 1, Slot: -1}} {
		if n := id.Number(); n != -1 {
			t.Errorf("%v numbered %d, want -1", id, n)
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
	lib, _ := New(env, Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25})
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

// TestSwapIsOneArmJob: two groups on one roller each hold an array, and both
// are told to swap at the same instant. A swap holds the arm from its unload's
// COLLECT to its load's SEPARATE, so the second swap's COLLECT starts only
// after the first swap's SEPARATE has ended, and each swap, from the moment
// it gets the arm, takes exactly as long as it does alone. Every tray sits in
// slot 0, so no swap's roller rotation depends on which ran before it.
func TestSwapIsOneArmJob(t *testing.T) {
	held := [2]TrayID{{Roller: 0, Layer: 84}, {Roller: 0, Layer: 60}}
	want := [2]TrayID{{Roller: 0, Layer: 40}, {Roller: 0, Layer: 10}}
	bed := func() (*sim.Env, *Library) {
		env := sim.NewEnv()
		lib, _ := New(env, Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25})
		inSim(t, env, func(p *sim.Proc) {
			for gi, id := range held {
				if err := lib.LoadArray(p, id, gi); err != nil {
					t.Fatalf("LoadArray(%v, %d): %v", id, gi, err)
				}
			}
		})
		return env, lib
	}
	// Alone: each swap, and the unload it starts with, on an idle arm.
	var swapAlone, unloadAlone [2]time.Duration
	for gi := range held {
		env, lib := bed()
		inSim(t, env, func(p *sim.Proc) {
			start := p.Now()
			if err := lib.SwapArray(p, gi, want[gi]); err != nil {
				t.Fatalf("SwapArray(%d): %v", gi, err)
			}
			swapAlone[gi] = p.Now() - start
		})
		env, lib = bed()
		inSim(t, env, func(p *sim.Proc) {
			start := p.Now()
			if err := lib.UnloadArray(p, gi, nil); err != nil {
				t.Fatalf("UnloadArray(%d): %v", gi, err)
			}
			unloadAlone[gi] = p.Now() - start
		})
	}

	env, lib := bed()
	t0 := env.Now()
	unloaded := map[string]time.Duration{}
	env.AddEventSink(func(ev sim.TraceEvent) {
		if ev.Kind == sim.KindRackUnload {
			unloaded[ev.Msg] = ev.T
		}
	})
	var done [2]time.Duration
	for gi := range held {
		env.Go("swap", func(p *sim.Proc) {
			if err := lib.SwapArray(p, gi, want[gi]); err != nil {
				t.Errorf("SwapArray(%d): %v", gi, err)
			}
			done[gi] = p.Now()
		})
	}
	env.Run()
	for gi, id := range want {
		if g := lib.Groups[gi]; g.Source == nil || *g.Source != id {
			t.Errorf("group %d holds %v, want %v", gi, g.Source, id)
		}
	}
	if got := done[0] - t0; got != swapAlone[0] {
		t.Errorf("first swap took %v, want %v as alone", got, swapAlone[0])
	}
	if collect := unloaded[held[1].String()] - unloadAlone[1]; collect < done[0] {
		t.Errorf("second swap's COLLECT began at %v, before the first swap ended at %v", collect, done[0])
	}
	if got := done[1] - done[0]; got != swapAlone[1] {
		t.Errorf("second swap took %v from the first one's end, want %v as alone", got, swapAlone[1])
	}
}

// TestCrossRollerSwapsOverlap: a swap whose array goes home to one roller and
// whose next array comes from the other hands the home arm back after the
// unload and takes the other roller's for the load, never holding two. Two
// such swaps in opposite directions, queued behind a load on each roller,
// run their unloads side by side and then their loads side by side: neither
// deadlocks, and both end one load plus one swap after they were issued.
func TestCrossRollerSwapsOverlap(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	lib, _ := New(env, Config{Rollers: 2, DriveGroups: 4, Media: optical.Media25})
	inSim(t, env, func(p *sim.Proc) {
		if err := lib.LoadArray(p, TrayID{Roller: 0, Layer: 84}, 0); err != nil {
			t.Fatalf("LoadArray(0): %v", err)
		}
		if err := lib.LoadArray(p, TrayID{Roller: 1, Layer: 84}, 1); err != nil {
			t.Fatalf("LoadArray(1): %v", err)
		}
	})
	t0 := env.Now()
	// Groups 2 and 3 load first, holding roller 0's and roller 1's arm; the
	// swaps of groups 0 and 1 queue behind them.
	for gi, id := range []TrayID{{Roller: 0, Layer: 70}, {Roller: 1, Layer: 70}} {
		env.Go("load", func(p *sim.Proc) {
			if err := lib.LoadArray(p, id, gi+2); err != nil {
				t.Errorf("LoadArray(%d): %v", gi+2, err)
			}
		})
	}
	var done [2]time.Duration
	for gi, id := range []TrayID{{Roller: 1, Layer: 50}, {Roller: 0, Layer: 50}} {
		env.Go("swap", func(p *sim.Proc) {
			if err := lib.SwapArray(p, gi, id); err != nil {
				t.Errorf("SwapArray(%d, %v): %v", gi, id, err)
			}
			done[gi] = p.Now() - t0
		})
	}
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked: a cross-roller swap waits for an arm it cannot get")
	}
	// A load is ~69 s and a swap ~150 s: each swap follows its roller's load,
	// and neither waits for the other.
	for gi, d := range done {
		if d < 200*time.Second || d > 250*time.Second {
			t.Errorf("swap %d ended at %v, want one load plus one swap", gi, d)
		}
	}
	if gap := max(done[0], done[1]) - min(done[0], done[1]); gap > 20*time.Second {
		t.Errorf("swaps ended at %v and %v, want them side by side", done[0], done[1])
	}
	for gi, id := range []TrayID{{Roller: 1, Layer: 50}, {Roller: 0, Layer: 50}} {
		if g := lib.Groups[gi]; g.Source == nil || *g.Source != id {
			t.Errorf("group %d holds %v, want %v", gi, g.Source, id)
		}
	}
}
