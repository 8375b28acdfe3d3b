package olfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ros/internal/image"
	"ros/internal/sched"
	"ros/internal/sim"
)

// Regression for the eviction hazard the scheduler's demand tracking fixes:
// while a coalesced waiter (A2) is still queued on an in-flight fetch of
// trayA, a competing fetch of trayB must not pick trayA's group as its
// eviction victim — doing so would swap the array out from under A2 and
// force a second mechanical fetch (the legacy first-idle-loaded victim did
// exactly that: 4 loads instead of 3).
func TestEvictionSkipsTrayWithQueuedWaiters(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
	})
	fs := tb.fs
	tb.run(t, func(p *sim.Proc) {
		// Two burned arrays to fetch later.
		for i := 0; i < 2; i++ {
			if err := fs.WriteFile(p, fmt.Sprintf("/ev/f%d.dat", i), pat(64<<10, byte(i+1))); err != nil {
				t.Error(err)
				return
			}
			c, err := fs.FlushAndBurn(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
		trays := fs.Cat.Trays(image.DAUsed)
		if len(trays) != 2 {
			t.Errorf("expected 2 burned trays, got %v", trays)
			return
		}
		trayA, trayB := trays[0], trays[1]
		// A long burn claims group 0, leaving a single group for the fetches.
		if err := fs.WriteFile(p, "/ev/burn.dat", pat(64<<10, 9)); err != nil {
			t.Error(err)
			return
		}
		if err := fs.Sync(p); err != nil {
			t.Error(err)
			return
		}
		burnsDone, err := fs.FlushAndBurn(p)
		if err != nil {
			t.Error(err)
			return
		}
		for fs.sched.GroupIdle(0) {
			p.Sleep(time.Second)
		}
		// A1 fetches trayA; A2 coalesces onto it mid-flight; C then fetches
		// trayB, which can only be served by evicting something.
		var a2SawTray bool
		a1 := sim.NewCompletion[int](tb.env)
		a2 := sim.NewCompletion[int](tb.env)
		cc := sim.NewCompletion[int](tb.env)
		tb.env.Go("A1", func(pp *sim.Proc) {
			gi, err := fs.fetchTray(pp, trayA, sched.Interactive)
			a1.Resolve(gi, err)
		})
		tb.env.Go("A2", func(pp *sim.Proc) {
			pp.Sleep(2 * time.Second)
			gi, err := fs.fetchTray(pp, trayA, sched.Interactive)
			if err == nil {
				g := fs.lib.Groups[gi]
				a2SawTray = g.Source != nil && *g.Source == trayA
			}
			a2.Resolve(gi, err)
		})
		tb.env.Go("C", func(pp *sim.Proc) {
			pp.Sleep(4 * time.Second)
			gi, err := fs.fetchTray(pp, trayB, sched.Interactive)
			cc.Resolve(gi, err)
		})
		for _, c := range []*sim.Completion[int]{a1, a2, cc} {
			if _, err := c.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := burnsDone.Wait(p); err != nil {
			t.Error(err)
			return
		}
		if !a2SawTray {
			t.Error("coalesced waiter A2 returned a group no longer holding its tray")
		}
		if got := fs.Obs().Counter("sched.coalesced_fetches").Value(); got != 1 {
			t.Errorf("coalesced fetches = %d, want 1 (A2 joining A1)", got)
		}
		// C's victim search must have skipped trayA's group while A1/A2 still
		// had demand pinned on it — the hazard this scheduler closes.
		if got := fs.Obs().Counter("sched.eviction_skips_demand").Value(); got < 1 {
			t.Errorf("eviction demand-skips = %d, want >=1 (trayA was victimized while waiters were queued)", got)
		}
		// 2 setup burns + 1 background burn + trayA fetch + trayB fetch.
		// The legacy victim choice evicted trayA for trayB and paid a 6th
		// load to fetch trayA back for A2.
		if loads := tb.lib.Obs().Counter("rack.loads").Value(); loads != 5 {
			t.Errorf("total array loads = %d, want 5 (no double fetch of %v)", loads, trayA)
		}
	})
}

// Concurrent mixed workload under qos-scan with the §4.8 interrupt-burn read
// policy: same-tray reads coalesce into one mechanical fetch, reads preempt
// the burns occupying all groups (the burns resume in append mode), and every
// read returns correct data. Run with -race in CI.
func TestCoalescingUnderConcurrentMixedLoad(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
		c.ReadPolicy = InterruptBurn
		c.Sched = sched.Config{Policy: sched.PolicyQoSScan}
	})
	fs := tb.fs
	dataX := pat(64<<10, 1)
	dataY := pat(64<<10, 2)
	tb.run(t, func(p *sim.Proc) {
		for _, f := range []struct {
			path string
			data []byte
		}{{"/mx/x.dat", dataX}, {"/mx/y.dat", dataY}} {
			if err := fs.WriteFile(p, f.path, f.data); err != nil {
				t.Error(err)
				return
			}
			c, err := fs.FlushAndBurn(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
		trays := fs.Cat.Trays(image.DAUsed)
		if len(trays) != 2 {
			t.Errorf("expected 2 burned trays, got %v", trays)
			return
		}
		// Four sealed buckets -> two burn tasks occupying both groups.
		for i := 0; i < 4; i++ {
			if err := fs.WriteFile(p, fmt.Sprintf("/mx/burn%d.dat", i), pat(64<<10, byte(0x10+i))); err != nil {
				t.Error(err)
				return
			}
			if err := fs.Sync(p); err != nil {
				t.Error(err)
				return
			}
		}
		burnsDone, err := fs.FlushAndBurn(p)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			all := true
			for _, g := range fs.lib.Groups {
				if !g.AnyBurning() {
					all = false
				}
			}
			if all {
				break
			}
			p.Sleep(time.Second)
		}
		// Six readers: four on x (coalescing on one tray), two on y, plus a
		// best-effort maintenance prefetch retrying against busy groups.
		type rd struct {
			path string
			want []byte
		}
		reads := []rd{
			{"/mx/x.dat", dataX}, {"/mx/x.dat", dataX}, {"/mx/x.dat", dataX}, {"/mx/x.dat", dataX},
			{"/mx/y.dat", dataY}, {"/mx/y.dat", dataY},
		}
		done := make([]*sim.Completion[struct{}], len(reads))
		for i, r := range reads {
			i, r := i, r
			done[i] = sim.NewCompletion[struct{}](tb.env)
			tb.env.Go(fmt.Sprintf("reader%d", i), func(pp *sim.Proc) {
				pp.Sleep(time.Duration(i) * 100 * time.Millisecond)
				got, err := fs.ReadFile(pp, r.path)
				if err == nil && !bytes.Equal(got, r.want) {
					err = fmt.Errorf("reader %d: wrong bytes for %s", i, r.path)
				}
				done[i].Resolve(struct{}{}, err)
			})
		}
		prefetched := sim.NewCompletion[struct{}](tb.env)
		tb.env.Go("prefetcher", func(pp *sim.Proc) {
			for {
				if err := fs.PrefetchTray(pp, trays[1], 0); err == nil {
					prefetched.Resolve(struct{}{}, nil)
					return
				}
				pp.Sleep(time.Minute)
			}
		})
		for _, c := range done {
			if _, err := c.Wait(p); err != nil {
				t.Error(err)
			}
		}
		if _, err := burnsDone.Wait(p); err != nil {
			t.Error(err)
		}
		if _, err := prefetched.Wait(p); err != nil {
			t.Error(err)
		}
		if fs.m.burnResumes.Value() < 1 {
			t.Errorf("burn resumes = %d, want >=1 (interrupt-burn policy should have preempted a burn)", fs.m.burnResumes.Value())
		}
		if got := fs.Obs().Counter("sched.coalesced_fetches").Value(); got < 1 {
			t.Errorf("coalesced fetches = %d, want >=1 (same-tray readers should share one fetch)", got)
		}
	})
}
