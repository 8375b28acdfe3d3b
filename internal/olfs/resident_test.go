package olfs

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
)

// counter reads a counter from the bed's shared registry.
func counter(tb *testbed, name string) int64 { return tb.fs.Obs().Counter(name).Value() }

// TestReadAfterBurnIsInDrive: a burned array stays in the drives that burned
// it, so the first read of a just-burned, recycled image is an in-drive read
// (Table 1 row 3) rather than a ~70 s reload of the array.
func TestReadAfterBurnIsInDrive(t *testing.T) {
	tb := coldBed(t, nil)
	data := pat(300*1024, 41)
	var lat time.Duration
	tb.run(t, func(p *sim.Proc) {
		tray := burnOne(t, tb, p, "/rb/a", data)
		if _, ok := tb.fs.Buckets.Resident(imageOf(t, tb, p, "/rb/a")); ok {
			t.Fatal("image still resident after a recycling burn")
		}
		if tb.fs.groupHolding(tray) < 0 {
			t.Fatal("the burned array left its drives")
		}
		start := p.Now()
		readCheck(t, tb, p, "/rb/a", data)
		lat = p.Now() - start
	})
	if lat >= time.Second {
		t.Errorf("read right after the burn took %v, want an in-drive read under 1 s", lat)
	}
	if n := tb.fs.m.fetchTasks.Value(); n != 0 {
		t.Errorf("olfs.fetch_tasks = %d, want 0", n)
	}
	reads := 0
	for _, tr := range tb.fs.Tracer().Traces() {
		if tr.Name != "olfs.read" {
			continue
		}
		reads++
		for _, sp := range tr.Spans() {
			if sp.Name == "rack.tray_load" {
				t.Error("read trace has a rack.tray_load span")
			}
		}
	}
	if reads == 0 {
		t.Error("no olfs.read trace in the journal")
	}
}

// burnTwo burns two single-file arrays; on the bed's two drive groups each
// stays in the group that burned it.
func burnTwo(t *testing.T, tb *testbed, p *sim.Proc) (a, b rack.TrayID) {
	t.Helper()
	a = burnOne(t, tb, p, "/ev/a", pat(64*1024, 42))
	b = burnOne(t, tb, p, "/ev/b", pat(64*1024, 43))
	if tb.fs.groupHolding(a) < 0 || tb.fs.groupHolding(b) < 0 {
		t.Fatalf("burned arrays not resident: a in %d, b in %d", tb.fs.groupHolding(a), tb.fs.groupHolding(b))
	}
	return a, b
}

// TestBurnEvictsIdleBurnedArray: a burn that needs a group holding an idle
// burned array evicts it through the scheduler's victim path, with exactly
// one unload and one load.
func TestBurnEvictsIdleBurnedArray(t *testing.T) {
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		a, b := burnTwo(t, tb, p)
		loads, unloads, evictions := counter(tb, "rack.loads"), counter(tb, "rack.unloads"), counter(tb, "sched.evictions")
		c := burnOne(t, tb, p, "/ev/c", pat(64*1024, 44))
		if d := counter(tb, "rack.loads") - loads; d != 1 {
			t.Errorf("third burn made %d loads, want 1", d)
		}
		if d := counter(tb, "rack.unloads") - unloads; d != 1 {
			t.Errorf("third burn made %d unloads, want 1", d)
		}
		if d := counter(tb, "sched.evictions") - evictions; d != 1 {
			t.Errorf("third burn made %d evictions, want 1", d)
		}
		if tb.fs.groupHolding(c) < 0 {
			t.Error("the third burned array is not resident")
		}
		if (tb.fs.groupHolding(a) >= 0) == (tb.fs.groupHolding(b) >= 0) {
			t.Errorf("want exactly one of the first two arrays evicted: a in %d, b in %d",
				tb.fs.groupHolding(a), tb.fs.groupHolding(b))
		}
	})
}

// TestBurnNeverEvictsPinnedArray: a burned array with outstanding read
// demand is never the victim of a burn's claim; the burn evicts the other.
func TestBurnNeverEvictsPinnedArray(t *testing.T) {
	for _, pin := range []int{0, 1} {
		tb := coldBed(t, nil)
		tb.run(t, func(p *sim.Proc) {
			a, b := burnTwo(t, tb, p)
			pinned, other := a, b
			if pin == 1 {
				pinned, other = b, a
			}
			tb.fs.sched.Pin(pinned)
			burnOne(t, tb, p, "/ev/c", pat(64*1024, 44))
			if tb.fs.groupHolding(pinned) < 0 {
				t.Errorf("pin %d: the demand-pinned array %v was evicted", pin, pinned)
			}
			if tb.fs.groupHolding(other) >= 0 {
				t.Errorf("pin %d: the unpinned array %v is still loaded", pin, other)
			}
			tb.fs.sched.Unpin(pinned)
		})
	}
}

// TestUnloadIdleKeepsPinnedArray: UnloadIdle puts every idle array home but
// leaves one with outstanding demand in its drives.
func TestUnloadIdleKeepsPinnedArray(t *testing.T) {
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		a, b := burnTwo(t, tb, p)
		tb.fs.sched.Pin(a)
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		if tb.fs.groupHolding(a) < 0 {
			t.Error("UnloadIdle evicted a pinned array")
		}
		if tb.fs.groupHolding(b) >= 0 {
			t.Error("UnloadIdle left an idle array loaded")
		}
		tb.fs.sched.Unpin(a)
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		for gi, g := range tb.lib.Groups {
			if g.Loaded() {
				t.Errorf("group %d still holds %v", gi, *g.Source)
			}
		}
	})
}

// TestPrefetchUnloadsBackToBack is the regression test for back-to-back
// unloads on one roller: with both groups holding idle arrays, prefetching
// group 1's tray into group 0 unloads group 1 and then group 0 without a
// yield between them. The second COLLECT used to take the arm motor before
// the first unload's arm return, failing "arm must be atop drives".
func TestPrefetchUnloadsBackToBack(t *testing.T) {
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		a, b := burnTwo(t, tb, p)
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		if err := tb.fs.PrefetchTray(p, a, 0); err != nil {
			t.Fatalf("PrefetchTray(a, 0): %v", err)
		}
		if err := tb.fs.PrefetchTray(p, b, 1); err != nil {
			t.Fatalf("PrefetchTray(b, 1): %v", err)
		}
		if err := tb.fs.PrefetchTray(p, b, 0); err != nil {
			t.Fatalf("PrefetchTray(b, 0) with both groups loaded: %v", err)
		}
		if tb.fs.groupHolding(b) != 0 || tb.fs.groupHolding(a) >= 0 || tb.lib.Groups[1].Loaded() {
			t.Errorf("after the prefetch: a in %d, b in %d, group 1 loaded=%v",
				tb.fs.groupHolding(a), tb.fs.groupHolding(b), tb.lib.Groups[1].Loaded())
		}
	})
}

// TestFailedAndInterruptedRunsUnload: only a successful burn leaves its
// array in the drives, and only it mounts the array's data discs. A
// hard-failed run and an interrupted run put theirs back before they report,
// so the retry or resume starts from an empty group, and mount nothing: no
// disc is mounted, nor read, until the retry or the resume succeeds.
func TestFailedAndInterruptedRunsUnload(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		setup      func(t *testing.T, tb *testbed)
	}{
		{"hard-failure", sim.KindBurnFail, func(t *testing.T, tb *testbed) {
			if _, err := faultinject.New(tb.env, 1).ArmSpec("optical.burn:once,after=20"); err != nil {
				t.Fatal(err)
			}
		}},
		{"interrupt", sim.KindBurnInterrupt, func(t *testing.T, tb *testbed) {
			tb.env.Go("interrupter", func(ip *sim.Proc) {
				for i := 0; i < 10000; i++ {
					if g := burningGroupTB(tb); g != nil {
						ip.Sleep(50 * time.Second)
						if g.Drives[0].State() == optical.StateBurning {
							g.Drives[0].InterruptBurn()
						}
						return
					}
					ip.Sleep(time.Second)
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newBed(t, func(c *Config) { c.AutoBurn = false })
			seen := 0
			tb.env.AddEventSink(func(ev sim.TraceEvent) {
				if ev.Kind != tc.kind {
					return
				}
				seen++
				tray, err := rack.ParseTrayID(ev.Msg)
				if err != nil {
					t.Errorf("event %s: %v", ev.Kind, err)
					return
				}
				if gi := tb.fs.groupHolding(tray); gi >= 0 {
					t.Errorf("%s reported with %v still in group %d", ev.Kind, tray, gi)
				}
				if tr, _ := tb.lib.Tray(tray); !tr.Full() {
					t.Errorf("%s reported with %v holding %d discs, want its full array home", ev.Kind, tray, len(tr.Discs))
				}
				reads := discReads(tb)
				tb.env.Go("check-no-mount", func(cp *sim.Proc) {
					// The retry or resume loads a tray first (~70 s), so
					// nothing of its own reads a disc in this window.
					cp.Sleep(vfsMountTime + time.Second)
					if n := discReads(tb) - reads; n != 0 {
						t.Errorf("%d disc reads after %s", n, ev.Kind)
					}
					if len(tb.fs.mounting) != 0 || len(tb.fs.mounted) != 0 {
						t.Errorf("after %s: %d mounts in flight, %d mounted, want none",
							ev.Kind, len(tb.fs.mounting), len(tb.fs.mounted))
					}
				})
			})
			tc.setup(t, tb)
			var burned rack.TrayID
			tb.run(t, func(p *sim.Proc) {
				if _, err := writeBurnSetTB(t, tb, p).Wait(p); err != nil {
					t.Fatalf("burn: %v", err)
				}
				trays := tb.fs.Cat.Trays(image.DAUsed)
				burned = trays[len(trays)-1]
			})
			if seen != 1 {
				t.Errorf("%s events = %d, want 1", tc.kind, seen)
			}
			gi := tb.fs.groupHolding(burned)
			if gi < 0 {
				t.Fatalf("the successful run's array %v left its drives", burned)
			}
			for i, drv := range tb.lib.Groups[gi].Drives {
				if _, ok := tb.fs.mounted[drv]; ok != (i < tb.fs.cfg.DataDiscs) {
					t.Errorf("drive %s (position %d) mounted=%v, want %v", drv.ID, i, ok, !ok)
				}
			}
		})
	}
}

// TestBurnSwapsDoNotInterleave: two burns queued together against two groups
// that each hold an idle burned array each swap their group as one arm job
// (rack.SwapArray). A burn's load starts the instant its own unload ends; the
// other burn's unload, queued for the arm meanwhile, never slips between
// them. The wait for the arm is charged to the waiting swap's unload span,
// which opens as its claim is granted, not to olfs.
func TestBurnSwapsDoNotInterleave(t *testing.T) {
	tb := coldBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		burnTwo(t, tb, p)
		var burns []*sim.Completion[error]
		for i, path := range []string{"/ev/c", "/ev/d"} {
			if err := tb.fs.WriteFile(p, path, pat(64*1024, 44+byte(i))); err != nil {
				t.Fatalf("WriteFile %s: %v", path, err)
			}
			c, err := tb.fs.FlushAndBurn(p)
			if err != nil {
				t.Fatalf("FlushAndBurn: %v", err)
			}
			burns = append(burns, c)
		}
		for _, c := range burns {
			if _, err := c.Wait(p); err != nil {
				t.Fatalf("burn: %v", err)
			}
		}
	})
	type swap struct{ wait, unload, load *obs.TraceSpan }
	var swaps []swap
	for _, tr := range tb.fs.Tracer().Traces() {
		if tr.Name != "olfs.burn" {
			continue
		}
		var s swap
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "sched.wait":
				s.wait = sp
			case "rack.tray_unload":
				s.unload = sp
			case "rack.tray_load":
				s.load = sp
			}
		}
		if s.unload != nil { // the first two burns loaded empty groups
			swaps = append(swaps, s)
		}
	}
	if len(swaps) != 2 {
		t.Fatalf("%d burns evicted an array, want 2", len(swaps))
	}
	for i, s := range swaps {
		if s.unload.Start != s.wait.Stop {
			t.Errorf("burn %d: claim granted at %v, unload span opened at %v; want the arm wait inside the unload span",
				i, s.wait.Stop, s.unload.Start)
		}
		if s.load == nil || s.load.Start != s.unload.Stop {
			t.Fatalf("burn %d: unload ended at %v, load %+v; want the load to start at the unload's end", i, s.unload.Stop, s.load)
		}
	}
	first, second := swaps[0], swaps[1]
	if second.unload.Stop < first.unload.Stop {
		first, second = second, first
	}
	// The second swap's unload span opens when it asks for the arm.
	if second.unload.Start >= first.load.Stop {
		t.Fatalf("the second swap asked for the arm at %v, after the first ended at %v: the burns never contended",
			second.unload.Start, first.load.Stop)
	}
	if second.unload.Stop < first.load.Stop {
		t.Errorf("the second burn's unload ended at %v, inside the first burn's load (%v-%v)",
			second.unload.Stop, first.load.Start, first.load.Stop)
	}
}

// TestPrefetchKeepsPinnedArray: PrefetchTray refuses to evict an array a
// reader is mid-read on, whether it would swap the array out of its own group
// or move it into another; the read finishes in its drives with no fetch.
func TestPrefetchKeepsPinnedArray(t *testing.T) {
	data := pat(600*1024, 45)
	for _, move := range []bool{false, true} {
		tb := coldBed(t, nil)
		tb.run(t, func(p *sim.Proc) {
			a := burnOne(t, tb, p, "/pf/a", data)
			b := burnOne(t, tb, p, "/pf/b", pat(64*1024, 46))
			ga, gb := tb.fs.groupHolding(a), tb.fs.groupHolding(b)
			if ga < 0 || gb < 0 {
				t.Fatalf("burned arrays not resident: a in %d, b in %d", ga, gb)
			}
			// Prefetch class: no cache fill, whose own pin would hide the
			// reader's.
			read := sim.NewCompletion[struct{}](tb.env)
			tb.env.Go("reader", func(rp *sim.Proc) {
				got, err := tb.fs.ReadFileClass(rp, "/pf/a", sched.Prefetch)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("move=%v: read across the prefetch: %d bytes, err=%v", move, len(got), err)
				}
				read.Resolve(struct{}{}, nil)
			})
			for !tb.fs.sched.Pinned(a) {
				p.Sleep(time.Millisecond)
			}
			var err error
			if move {
				err = tb.fs.PrefetchTray(p, a, gb) // a's array into b's group
			} else {
				err = tb.fs.PrefetchTray(p, b, ga) // b's array into a's group
			}
			if err == nil {
				t.Errorf("move=%v: PrefetchTray evicted the array a reader is mid-read on", move)
			}
			read.Wait(p)
			if tb.fs.groupHolding(a) != ga || tb.fs.groupHolding(b) != gb {
				t.Errorf("move=%v: arrays moved: a in %d (was %d), b in %d (was %d)",
					move, tb.fs.groupHolding(a), ga, tb.fs.groupHolding(b), gb)
			}
		})
		if n := tb.fs.m.fetchTasks.Value(); n != 0 {
			t.Errorf("move=%v: olfs.fetch_tasks = %d, want 0", move, n)
		}
		if n := tb.fs.m.staleSources.Value(); n != 0 {
			t.Errorf("move=%v: olfs.stale_sources = %d, want 0", move, n)
		}
	}
}
