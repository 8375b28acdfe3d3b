package olfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
)

// burnOne writes data at path and burns it, returning the tray it landed on.
func burnOne(t *testing.T, tb *testbed, p *sim.Proc, path string, data []byte) rack.TrayID {
	t.Helper()
	if err := tb.fs.WriteFile(p, path, data); err != nil {
		t.Fatalf("WriteFile %s: %v", path, err)
	}
	c, err := tb.fs.FlushAndBurn(p)
	if err != nil {
		t.Fatalf("FlushAndBurn: %v", err)
	}
	if _, err := c.Wait(p); err != nil {
		t.Fatalf("burn %s: %v", path, err)
	}
	ix, err := tb.fs.MV.Stat(p, path)
	if err != nil {
		t.Fatalf("Stat %s: %v", path, err)
	}
	addr, ok := tb.fs.Cat.Locate(ix.Current().Parts[0])
	if !ok {
		t.Fatalf("%s not in DIL after burn", path)
	}
	return addr.Tray
}

// TestStaleHandleAfterEviction is the tentpole regression: a read handle
// resolved against a loaded tray keeps returning the file's bytes after the
// tray is swapped out of its drive group mid-handle. The stale source must be
// detected via the group's validity epoch and transparently re-resolved
// through a fresh mechanical fetch.
func TestStaleHandleAfterEviction(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true // no buffer copies: reads must go to disc
	})
	data := pat(300*1024, 11)
	other := pat(100*1024, 12)
	tb.run(t, func(p *sim.Proc) {
		trayA := burnOne(t, tb, p, "/sh/a.bin", data)
		trayB := burnOne(t, tb, p, "/sh/b.bin", other)
		// Both arrays home: the first read loads trayA.
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}

		fr, err := tb.fs.OpenFile(p, "/sh/a.bin")
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		buf := make([]byte, len(data))
		h := len(buf) / 2
		if n, err := fr.ReadAt(p, buf[:h], 0); err != nil || n != h {
			t.Fatalf("first half: n=%d err=%v", n, err)
		}
		gi := tb.fs.groupHolding(trayA)
		if gi < 0 {
			t.Fatal("trayA not loaded after read")
		}
		// Evict trayA from under the open handle by force-loading trayB into
		// the same group (advances the group's validity epoch).
		if err := tb.fs.PrefetchTray(p, trayB, gi); err != nil {
			t.Fatalf("PrefetchTray: %v", err)
		}
		if tb.fs.groupHolding(trayA) >= 0 {
			t.Fatal("trayA still loaded; eviction did not happen")
		}
		if n, err := fr.ReadAt(p, buf[h:], int64(h)); err != nil || n != len(buf)-h {
			t.Fatalf("second half through stale handle: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("post-eviction read returned wrong bytes")
		}
		if err := fr.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
	if got := tb.fs.m.staleSources.Value(); got < 1 {
		t.Errorf("olfs.stale_sources = %d, want >= 1", got)
	}
	if tb.fs.m.fetchTasks.Value() < 2 {
		t.Errorf("olfs.fetch_tasks = %d, want >= 2 (initial load + re-resolve)", tb.fs.m.fetchTasks.Value())
	}
}

// TestReadAtChargesDirectIOMVOp pins the Read/ReadAt parity bugfix: under
// DirectIO both entry points charge the same MV index-op cost per request.
func TestReadAtChargesDirectIOMVOp(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.DirectIO = true
		c.AutoBurn = false
	})
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/d/f", pat(8*1024, 3)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		fr, err := tb.fs.OpenFile(p, "/d/f")
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		buf := make([]byte, 4*1024)
		base := tb.fs.m.mvCharges.Value()
		if _, err := fr.Read(p, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		readDelta := tb.fs.m.mvCharges.Value() - base
		base = tb.fs.m.mvCharges.Value()
		if _, err := fr.ReadAt(p, buf, 4*1024); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		readAtDelta := tb.fs.m.mvCharges.Value() - base
		if readDelta == 0 {
			t.Fatal("DirectIO Read charged no MV op")
		}
		if readAtDelta != readDelta {
			t.Errorf("per-op MV charges: Read=%d ReadAt=%d, want equal", readDelta, readAtDelta)
		}
	})
}

// TestJoinedFetchRetriesAfterWinnerFails pins the coalesced-fetch bugfix: a
// caller that joined an in-flight fetch whose mechanical load failed must not
// surface the winner's error — it retries once as a fresh winner.
func TestJoinedFetchRetriesAfterWinnerFails(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	})
	plane := faultinject.New(tb.env, 1)
	data := pat(200*1024, 5)
	var okReads int
	tb.run(t, func(p *sim.Proc) {
		burnOne(t, tb, p, "/j/f", data)
		trayB := burnOne(t, tb, p, "/j/g", pat(50*1024, 6))
		trayC := burnOne(t, tb, p, "/j/h", pat(50*1024, 7))
		// Occupy both drive groups with the other trays: the readers' fetch
		// must evict a victim first, so the winner parks on the unload
		// mechanics long enough for the second reader to join the fetch.
		if err := tb.fs.PrefetchTray(p, trayB, 0); err != nil {
			t.Fatalf("PrefetchTray: %v", err)
		}
		if err := tb.fs.PrefetchTray(p, trayC, 1); err != nil {
			t.Fatalf("PrefetchTray: %v", err)
		}
		// The next tray load (the coalesced fetch both readers share) fails.
		if _, err := plane.ArmSpec("rack.tray.load:once"); err != nil {
			t.Fatalf("ArmSpec: %v", err)
		}
		done := make([]*sim.Completion[error], 2)
		for i := range done {
			c := sim.NewCompletion[error](tb.env)
			done[i] = c
			tb.env.Go("reader", func(rp *sim.Proc) {
				got, err := tb.fs.ReadFile(rp, "/j/f")
				if err == nil && !bytes.Equal(got, data) {
					t.Error("joined read returned wrong bytes")
				}
				if err == nil {
					okReads++
				}
				c.Resolve(err, nil)
			})
		}
		for _, c := range done {
			c.Wait(p)
		}
	})
	// The winner eats the injected load failure; the joiner must retry and
	// succeed rather than inherit it.
	if okReads == 0 {
		t.Error("both readers failed: joiner inherited the winner's fetch error")
	}
	if got := tb.fs.m.joinRetries.Value(); got != 1 {
		t.Errorf("olfs.join_retries = %d, want 1", got)
	}
}

// TestSplitReadSurvivesEvictionDuringSpinUp: a cold read of a split file fans
// one process out per part, and each spins its drive up before the first
// transfer. When the maintenance interface swaps the tray out in that window
// the arm takes the discs from under the sleeping readers. The read must
// return the bytes or a typed no-disc error — never panic, which on a part
// reader's own process killed the program — and the next read must succeed.
//
// The scenario runs twice on identical beds: once without a reader to learn
// when the eviction ejects the discs, then with a reader started so that its
// spin-up straddles that instant.
func TestSplitReadSurvivesEvictionDuringSpinUp(t *testing.T) {
	data := pat(1500*1024, 21)
	// scenario evicts the cold tray holding the split file from group 0. A
	// non-negative readAfter starts a whole-file read that long after the
	// eviction begins. It returns how long the eviction took to eject.
	scenario := func(readAfter time.Duration) (ejectAfter time.Duration, got []byte, readErr error) {
		tb := newBed(t, func(c *Config) {
			c.AutoBurn = false
			c.RecycleAfterBurn = true // no buffer copies: reads must go to disc
		})
		tb.run(t, func(p *sim.Proc) {
			trayA := burnOne(t, tb, p, "/sp/split.bin", data)
			trayB := burnOne(t, tb, p, "/sp/other.bin", pat(50*1024, 22))
			ix, err := tb.fs.MV.Stat(p, "/sp/split.bin")
			if err != nil || len(ix.Current().Parts) < 2 {
				t.Fatalf("split.bin: parts=%v err=%v, want a split file", ix.Current().Parts, err)
			}
			// Arm-load trayA afresh so its drives are cold.
			for _, tray := range []rack.TrayID{trayB, trayA} {
				if err := tb.fs.PrefetchTray(p, tray, 0); err != nil {
					t.Fatalf("PrefetchTray(%v): %v", tray, err)
				}
			}
			t0 := p.Now()
			evicted := sim.NewCompletion[error](tb.env)
			tb.env.Go("evictor", func(ep *sim.Proc) {
				evicted.Resolve(tb.fs.PrefetchTray(ep, trayB, 0), nil)
			})
			read := sim.NewCompletion[error](tb.env)
			if readAfter >= 0 {
				tb.env.Go("reader", func(rp *sim.Proc) {
					rp.Sleep(readAfter)
					got, readErr = tb.fs.ReadFile(rp, "/sp/split.bin")
					read.Resolve(nil, nil)
				})
			} else {
				read.Resolve(nil, nil)
			}
			for tb.lib.Groups[0].Drives[0].Loaded() {
				p.Sleep(10 * time.Millisecond)
			}
			ejectAfter = p.Now() - t0
			if err, _ := evicted.Wait(p); err != nil {
				t.Fatalf("evicting PrefetchTray: %v", err)
			}
			read.Wait(p)
			again, err := tb.fs.ReadFile(p, "/sp/split.bin")
			if err != nil || !bytes.Equal(again, data) {
				t.Errorf("read after the eviction settled: %d bytes, err=%v", len(again), err)
			}
		})
		return ejectAfter, got, readErr
	}
	ejectAfter, _, _ := scenario(-1)
	if ejectAfter < optical.SpinUpTime {
		t.Fatalf("eviction ejected after %v, too soon to start a reader before it", ejectAfter)
	}
	_, got, err := scenario(ejectAfter - optical.SpinUpTime/2)
	switch {
	case err == nil:
		if !bytes.Equal(got, data) {
			t.Error("read across the eviction returned wrong bytes")
		}
	case !errors.Is(err, optical.ErrNoDisc) && !errors.Is(err, errStaleSource):
		t.Errorf("read across the eviction failed with an untyped error: %v", err)
	default:
		t.Logf("read across the eviction: %v", err)
	}
}
