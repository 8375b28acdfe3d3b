package faultinject

import (
	"errors"
	"testing"
	"time"

	"ros/internal/obs"
	"ros/internal/sim"
)

// drive runs fn as a simulation process and drains the environment.
func drive(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatalf("simulation deadlocked (%d live)", env.Live())
	}
}

func TestCheckWithoutPlaneIsInert(t *testing.T) {
	env := sim.NewEnv()
	drive(t, env, func(p *sim.Proc) {
		if err := Check(p, PointOpticalRead, "g0-d00"); err != nil {
			t.Fatalf("no plane: got %v", err)
		}
	})
	if At(env) != nil {
		t.Fatal("At on plane-less env should be nil")
	}
}

func TestOneShotAndMatch(t *testing.T) {
	env := sim.NewEnv()
	pl := New(env, 7)
	pl.Arm(Rule{Point: PointOpticalBurn, Match: "g0-d03", Count: 1})
	drive(t, env, func(p *sim.Proc) {
		if err := Check(p, PointOpticalBurn, "g0-d01"); err != nil {
			t.Fatalf("non-matching detail fired: %v", err)
		}
		if err := Check(p, PointOpticalRead, "g0-d03"); err != nil {
			t.Fatalf("non-matching point fired: %v", err)
		}
		err := Check(p, PointOpticalBurn, "g0-d03")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("matching check: got %v, want ErrInjected", err)
		}
		if err := Check(p, PointOpticalBurn, "g0-d03"); err != nil {
			t.Fatalf("one-shot fired twice: %v", err)
		}
	})
	if got := pl.Fires(); got != 1 {
		t.Fatalf("fires = %d, want 1", got)
	}
	ev := pl.Events()
	if len(ev) != 1 || ev[0].Point != PointOpticalBurn || ev[0].Detail != "g0-d03" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestEveryNthAfterAndWindow(t *testing.T) {
	env := sim.NewEnv()
	pl := New(env, 7)
	pl.Arm(Rule{Point: PointArmJam, Nth: 3, After: 2})
	pl.Arm(Rule{Point: PointMediaLSE, From: 10 * time.Second, To: 20 * time.Second})
	var jamFires, lseFires []int
	drive(t, env, func(p *sim.Proc) {
		for i := 1; i <= 12; i++ {
			if Check(p, PointArmJam, "r0") != nil {
				jamFires = append(jamFires, i)
			}
		}
		for i := 0; i < 30; i++ {
			if Check(p, PointMediaLSE, "disc") != nil {
				lseFires = append(lseFires, int(p.Now()/time.Second))
			}
			p.Sleep(time.Second)
		}
	})
	// After=2 skips evals 1-2; Nth=3 then fires on eligible evals 3,6,9 past
	// the skip window, i.e. overall evaluations 5, 8, 11.
	want := []int{5, 8, 11}
	if len(jamFires) != len(want) {
		t.Fatalf("jam fires at %v, want %v", jamFires, want)
	}
	for i := range want {
		if jamFires[i] != want[i] {
			t.Fatalf("jam fires at %v, want %v", jamFires, want)
		}
	}
	for _, s := range lseFires {
		if s < 10 || s > 20 {
			t.Fatalf("lse fired outside [10s,20s] window at %ds", s)
		}
	}
	if len(lseFires) != 11 {
		t.Fatalf("lse fired %d times, want 11 (every second in window)", len(lseFires))
	}
}

func TestProbabilityDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64) []Event {
		env := sim.NewEnv()
		pl := New(env, seed)
		pl.Arm(Rule{Point: PointOpticalRead, Prob: 0.3})
		drive(t, env, func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				Check(p, PointOpticalRead, "g0-d00")
				p.Sleep(time.Millisecond)
			}
		})
		return pl.Events()
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("p=0.3 over 200 evals never fired")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestCountersAndEmit(t *testing.T) {
	env := sim.NewEnv()
	reg := obs.New(env)
	pl := New(env, 1)
	pl.AttachObs(reg)
	pl.Arm(Rule{Point: PointTrayLoad, Count: 2})
	var emitted int
	env.AddEventSink(func(ev sim.TraceEvent) {
		if ev.Kind == "fault.inject" {
			emitted++
		}
	})
	drive(t, env, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			Check(p, PointTrayLoad, "r0/L1/S2")
		}
	})
	snap := reg.Snapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if got := counters["fault.injected"]; got != 2 {
		t.Fatalf("fault.injected = %d, want 2", got)
	}
	if got := counters["fault."+PointTrayLoad]; got != 2 {
		t.Fatalf("fault.%s = %d, want 2", PointTrayLoad, got)
	}
	if emitted != 2 {
		t.Fatalf("fault.inject events = %d, want 2", emitted)
	}
}

func TestClear(t *testing.T) {
	env := sim.NewEnv()
	pl := New(env, 1)
	pl.Arm(Rule{Point: PointOpticalBurn})
	drive(t, env, func(p *sim.Proc) {
		if err := Check(p, PointOpticalBurn, "d"); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed rule did not fire: %v", err)
		}
	})
	pl.Clear()
	if len(pl.Rules()) != 0 {
		t.Fatal("Clear left rules armed")
	}
	drive(t, env, func(p *sim.Proc) {
		if err := Check(p, PointOpticalBurn, "d"); err != nil {
			t.Fatalf("cleared plane fired: %v", err)
		}
	})
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"optical.read:p=0.01",
		"optical.burn@g0-d03:once",
		"media.lse:p=0.005,from=10m0s,to=2h0m0s",
		"rack.arm.jam:every=4,count=2",
		"rack.tray.unload@r1:after=3",
		"media.aged",
	}
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", s, err)
		}
		if got := r.Spec(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"nonexistent.point",
		"optical.read:p=1.5",
		"optical.read:p=nope",
		"optical.read:every=0",
		"optical.read:bogus=1",
		"optical.read:once=1",
		"optical.read:from=tuesday",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Fatalf("ParseSpec(%q) accepted invalid spec", s)
		}
	}
	rules, err := ParseSpec("optical.read:p=0.5; media.lse:once ;rack.arm.jam")
	if err != nil {
		t.Fatalf("multi-rule spec: %v", err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
}

func TestArmSpecAndRulesListing(t *testing.T) {
	env := sim.NewEnv()
	pl := New(env, 1)
	ids, err := pl.ArmSpec("optical.read:p=0.5;media.aged:once")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("armed %d rules, want 2", len(ids))
	}
	infos := pl.Rules()
	if len(infos) != 2 || infos[0].Spec != "optical.read:p=0.5" || infos[1].Spec != "media.aged:once" {
		t.Fatalf("rules = %+v", infos)
	}
	if _, err := pl.ArmSpec("bogus"); err == nil {
		t.Fatal("ArmSpec accepted bogus spec")
	}
}
