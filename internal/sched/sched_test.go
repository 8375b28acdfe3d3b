package sched

import (
	"testing"
	"time"

	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
)

func newLib(t *testing.T, groups int) (*sim.Env, *rack.Library) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	lib, err := rack.New(env, rack.Config{
		Rollers: 1, DriveGroups: groups, Media: optical.Media25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, lib
}

func run(t *testing.T, env *sim.Env) {
	t.Helper()
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func tray(layer, slot int) rack.TrayID { return rack.TrayID{Roller: 0, Layer: layer, Slot: slot} }

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"": PolicyFIFO, "fifo": PolicyFIFO, "qos-scan": PolicyQoSScan} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("elevator"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

// Two same-class waiters must be served in arrival order under qos-scan:
// grants are explicit, not a wakeup race.
func TestQoSScanFairArrivalOrder(t *testing.T) {
	env, lib := newLib(t, 1)
	s := New(env, Config{Policy: PolicyQoSScan}, lib)
	var order []string
	waiter := func(name string, slot int, delay time.Duration) {
		env.Go(name, func(p *sim.Proc) {
			p.Sleep(delay)
			g := s.AcquireFetch(p, Interactive, tray(50, slot))
			order = append(order, name)
			s.Release(g.Group)
		})
	}
	env.Go("ctl", func(p *sim.Proc) {
		if !s.TryClaim(0) {
			t.Error("TryClaim(0) failed on an idle group")
		}
		p.Sleep(time.Second) // let both waiters enqueue behind the claim
		s.Release(0)
	})
	waiter("first", 0, 10*time.Millisecond)
	waiter("second", 1, 20*time.Millisecond)
	run(t, env)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("service order = %v, want [first second]", order)
	}
}

// Same-priority fetches are served SCAN/elevator-style: the arm starts atop
// the roller sweeping down, so layers 80, 40, 10 are granted in that order
// regardless of arrival order.
func TestQoSScanOrdersByLayer(t *testing.T) {
	env, lib := newLib(t, 1)
	s := New(env, Config{Policy: PolicyQoSScan}, lib)
	var order []int
	for i, layer := range []int{40, 10, 80} { // shuffled arrival
		layer := layer
		delay := time.Duration(i+1) * 10 * time.Millisecond
		env.Go("w", func(p *sim.Proc) {
			p.Sleep(delay)
			g := s.AcquireFetch(p, Interactive, tray(layer, 0))
			order = append(order, layer)
			s.Release(g.Group)
		})
	}
	env.Go("ctl", func(p *sim.Proc) {
		s.TryClaim(0)
		p.Sleep(time.Second)
		s.Release(0)
	})
	run(t, env)
	if len(order) != 3 || order[0] != 80 || order[1] != 40 || order[2] != 10 {
		t.Fatalf("service order = %v, want [80 40 10]", order)
	}
}

// Deadline aging: a burn that has waited long enough overtakes a fresh
// interactive read (weights 8 vs 2: after seven aging steps the burn's
// effective priority is 9).
func TestAgingPromotesStarvedBurn(t *testing.T) {
	env, lib := newLib(t, 1)
	s := New(env, Config{Policy: PolicyQoSScan}, lib)
	var order []string
	env.Go("burn", func(p *sim.Proc) {
		g := s.AcquireBurn(p, tray(9, 0))
		order = append(order, "burn")
		s.Release(g.Group)
	})
	env.Go("read", func(p *sim.Proc) {
		p.Sleep(7 * agingStep)
		g := s.AcquireFetch(p, Interactive, tray(80, 0))
		order = append(order, "read")
		s.Release(g.Group)
	})
	env.Go("ctl", func(p *sim.Proc) {
		s.TryClaim(0)
		p.Sleep(7*agingStep + time.Second)
		s.Release(0)
	})
	run(t, env)
	if len(order) != 2 || order[0] != "burn" || order[1] != "read" {
		t.Fatalf("service order = %v, want [burn read] (aged burn first)", order)
	}
}

// Victim selection must skip a tray with pending demand: evicting it would
// swap out an array that queued waiters are about to consume.
func TestVictimSkipsPendingDemand(t *testing.T) {
	for _, pol := range []Policy{PolicyFIFO, PolicyQoSScan} {
		env, lib := newLib(t, 2)
		s := New(env, Config{Policy: pol}, lib)
		ta, tb, tc := tray(84, 0), tray(84, 1), tray(83, 0)
		env.Go("t", func(p *sim.Proc) {
			if err := lib.LoadArray(p, ta, 0); err != nil {
				t.Error(err)
				return
			}
			if err := lib.LoadArray(p, tb, 1); err != nil {
				t.Error(err)
				return
			}
			s.Pin(ta)
			g := s.AcquireFetch(p, Interactive, tc)
			if !g.Evict {
				t.Errorf("policy %v: expected an eviction grant, got %+v", pol, g)
			}
			if g.Group != 1 {
				t.Errorf("policy %v: victim = group %d holding pinned %v; want group 1", pol, g.Group, ta)
			}
			s.Release(g.Group)
			s.Unpin(ta)
		})
		run(t, env)
	}
}

// PolicyFIFO keeps the legacy first-idle-loaded victim; PolicyQoSScan picks
// the least recently used group.
func TestVictimLRUUnderQoSScan(t *testing.T) {
	for _, tc := range []struct {
		pol  Policy
		want int
	}{{PolicyFIFO, 0}, {PolicyQoSScan, 1}} {
		env, lib := newLib(t, 2)
		s := New(env, Config{Policy: tc.pol}, lib)
		want := tc.want
		pol := tc.pol
		env.Go("t", func(p *sim.Proc) {
			if err := lib.LoadArray(p, tray(84, 0), 0); err != nil {
				t.Error(err)
				return
			}
			if err := lib.LoadArray(p, tray(84, 1), 1); err != nil {
				t.Error(err)
				return
			}
			// Touch group 0 after group 1 so group 1 is the LRU victim.
			s.TryClaim(1)
			s.Release(1)
			p.Sleep(time.Second)
			s.TryClaim(0)
			s.Release(0)
			g := s.AcquireFetch(p, Interactive, tray(83, 0))
			if !g.Evict || g.Group != want {
				t.Errorf("policy %v: grant %+v, want eviction of group %d", pol, g, want)
			}
			s.Release(g.Group)
		})
		run(t, env)
	}
}

// A fetch for a tray already loaded in an unclaimed group is a free hit.
func TestLoadedTrayIsHit(t *testing.T) {
	env, lib := newLib(t, 2)
	s := New(env, Config{}, lib)
	ta := tray(84, 0)
	env.Go("t", func(p *sim.Proc) {
		if err := lib.LoadArray(p, ta, 1); err != nil {
			t.Error(err)
			return
		}
		g := s.AcquireFetch(p, Interactive, ta)
		if !g.Hit || g.Group != 1 {
			t.Errorf("grant %+v, want hit on group 1", g)
		}
		// A hit holds no claim: the group must still be claimable.
		if !s.TryClaim(1) {
			t.Error("group 1 left claimed after a hit grant")
		}
		s.Release(1)
	})
	run(t, env)
}

// The starvation hook fires when a fetch is pending and every group is
// claimed or burning, and queue depths are reported per class.
func TestStarvationHookAndDepths(t *testing.T) {
	env, lib := newLib(t, 1)
	s := New(env, Config{}, lib)
	kicks := 0
	s.SetStarvedHook(func() { kicks++ })
	env.Go("ctl", func(p *sim.Proc) {
		s.TryClaim(0)
		p.Sleep(time.Second)
		if kicks == 0 {
			t.Error("starvation hook did not fire with a fetch pending and all groups claimed")
		}
		d := s.Depths()
		if d[Interactive] != 1 || d[Burn] != 0 {
			t.Errorf("Depths() = %v, want one interactive request", d)
		}
		s.Release(0)
	})
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		g := s.AcquireFetch(p, Interactive, tray(80, 0))
		s.Release(g.Group)
	})
	run(t, env)
}
