package ros

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ros/internal/rack"
	"ros/internal/sim"
)

func TestSystemQuickstart(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	data := bytes.Repeat([]byte{0xA5}, 100<<10)
	err = sys.Do(func(p *Proc) error {
		if err := sys.FS.WriteFile(p, "/docs/hello.bin", data); err != nil {
			return err
		}
		got, err := sys.FS.ReadFile(p, "/docs/hello.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats().Obs
	if w, r := st.Counter("olfs.files_written"), st.Counter("olfs.files_read"); w != 1 || r != 1 {
		t.Errorf("files written/read = %d/%d, want 1/1", w, r)
	}
}

func TestSystemAutoBurnPipeline(t *testing.T) {
	sys, err := New(Options{BucketBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		// ~3 MB across 1 MB buckets seals enough images for an auto burn.
		for i := 0; i < 3; i++ {
			name := "/data/part-" + string(rune('a'+i))
			if err := sys.FS.WriteFile(p, name, bytes.Repeat([]byte{byte(i + 1)}, 900<<10)); err != nil {
				return err
			}
		}
		p.Sleep(3 * time.Hour) // drain the burn pipeline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Obs.Counter("olfs.burn_tasks") == 0 {
		t.Error("auto burn never triggered")
	}
	// Discs physically hold data now, in their trays or still in the drives
	// that burned them.
	burnt := 0
	lib := sys.Cluster.Racks()[0].Lib
	for ri := range lib.Rollers {
		for l := 0; l < rack.LayersPerRoller; l++ {
			for s := 0; s < rack.SlotsPerLayer; s++ {
				for pos := 0; pos < rack.DiscsPerTray; pos++ {
					d := lib.Disc(rack.TrayID{Roller: ri, Layer: l, Slot: s}, pos)
					if d != nil && !d.Blank() {
						burnt++
					}
				}
			}
		}
	}
	if burnt == 0 {
		t.Error("no burned discs")
	}
}

func TestPrototypeOptionsShape(t *testing.T) {
	o := PrototypeOptions()
	if o.Rollers != 2 || o.Media != Media100GB {
		t.Errorf("prototype options: %+v", o)
	}
	// Don't build the full PB prototype here (buffer sizing is PB-scale);
	// the experiments package exercises it piecemeal.
}

func TestDisableAutoBurn(t *testing.T) {
	sys, err := New(Options{BucketBytes: 1 << 20, DisableAutoBurn: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := sys.FS.WriteFile(p, "/d/f"+string(rune('0'+i)), bytes.Repeat([]byte{1}, 900<<10)); err != nil {
				return err
			}
		}
		p.Sleep(time.Hour)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Obs.Counter("olfs.burn_tasks") != 0 {
		t.Error("burn ran despite DisableAutoBurn")
	}
}

// TestStatsCountEveryRack: a federation's Stats counts the whole system, not
// rack 0 — its discs are every library's, and its counts sum every rack.
func TestStatsCountEveryRack(t *testing.T) {
	sys, err := New(Options{Racks: 3, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < 30; i++ {
			if err := sys.Cluster.WriteFile(p, fmt.Sprintf("/every/f%02d", i), []byte("x")); err != nil {
				return err
			}
		}
		for i := 0; i < 30; i++ {
			if _, err := sys.Cluster.ReadFile(p, fmt.Sprintf("/every/f%02d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	discs := 0
	for _, r := range sys.Cluster.Racks() {
		discs += r.Lib.TotalDiscs()
	}
	if st.TotalDiscs != discs {
		t.Errorf("TotalDiscs = %d, want %d (three libraries)", st.TotalDiscs, discs)
	}
	for _, name := range []string{"olfs.files_written", "olfs.files_read"} {
		if got := st.Obs.Counter(name); got != 30 {
			t.Errorf("%s = %d, want 30", name, got)
		}
	}
}

// fleetShape is the bench's fleet-mix System untraced: 4 racks, 2 replicas,
// 512 KB buckets, telemetry on and recycling after each burn.
func fleetShape(racks int) Options {
	return Options{Racks: racks, Replicas: min(racks, 2), BucketBytes: 512 << 10, SampleEvery: time.Minute,
		FS: FSConfig{RecycleAfterBurn: true}, TraceCapacity: -1}
}

// TestNewBuildsNoDiscs: building a System costs what it touches, not what
// its racks hold. A blank tray builds its discs on first use, so a 4-rack
// System takes under 2,000 allocations (66,975 when New built all 24,480
// discs) and still counts every disc.
func TestNewBuildsNoDiscs(t *testing.T) {
	o := fleetShape(4)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(o); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2000 {
		t.Errorf("a 4-rack New makes %.0f allocations, want under 2,000", allocs)
	}
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Stats().TotalDiscs, 4*sys.Cluster.Racks()[0].Lib.Config().Rollers*rack.DiscsPerRoller; got != want {
		t.Errorf("TotalDiscs = %d, want %d", got, want)
	}
}

// TestClosedSystemIsFreed builds, runs and closes six default Systems that
// each write 50 MB and burn it. Close must end every coroutine, so nothing
// pins a finished System: the goroutine count returns to where it started and
// the heap after a collection does not grow from one System to the next.
func TestClosedSystemIsFreed(t *testing.T) {
	goroutines := settledGoroutines()
	var first uint64
	for i := 0; i < 6; i++ {
		sys, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = sys.Do(func(p *Proc) error {
			for f := 0; f < 50; f++ {
				if err := sys.FS.WriteFile(p, fmt.Sprintf("/freed/f%02d", f), bytes.Repeat([]byte{byte(f + 1)}, 1<<20)); err != nil {
					return err
				}
			}
			p.Sleep(3 * time.Hour) // drain the burn pipeline
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		if burns := st.Obs.Counter("olfs.burn_tasks"); burns == 0 || st.Sim.Events == 0 || st.Sim.PeakWorkers == 0 || st.Sim.Workers > st.Sim.PeakWorkers {
			t.Fatalf("system %d: olfs.burn_tasks = %d, Sim = %+v", i, burns, st.Sim)
		}
		sys.Close()
		sys = nil

		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if i == 0 {
			first = m.HeapAlloc
		} else if m.HeapAlloc > first+64<<20 {
			t.Fatalf("heap after closing system %d is %d MB, %d MB after the first: closed Systems are still pinned",
				i+1, m.HeapAlloc>>20, first>>20)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Fatalf("%d goroutines after closing system %d, %d before the first was built", n, i+1, goroutines)
		}
	}
}

// TestDroppedSystemIsFreed is TestClosedSystemIsFreed without Close, plus a
// four-rack replicated System with telemetry and blocking admission, so every
// background service takes part. No goroutine outlives a quiescent Run, so a
// drained System its caller drops is plain garbage: after each one the
// goroutine count is back at its baseline and the heap, after a collection,
// within 64 MB of where it started.
func TestDroppedSystemIsFreed(t *testing.T) {
	runtime.GC()
	goroutines := settledGoroutines()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc
	check := func(what string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Fatalf("%d goroutines after dropping %s, %d before the first System was built", n, what, goroutines)
		}
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > base+64<<20 {
			t.Fatalf("heap after dropping %s is %d MB, %d MB before the first System: a drained System is still pinned",
				what, m.HeapAlloc>>20, base>>20)
		}
	}
	for i := 0; i < 6; i++ {
		sys, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = sys.Do(func(p *Proc) error {
			for f := 0; f < 50; f++ {
				if err := sys.FS.WriteFile(p, fmt.Sprintf("/dropped/f%02d", f), bytes.Repeat([]byte{byte(f + 1)}, 1<<20)); err != nil {
					return err
				}
			}
			p.Sleep(3 * time.Hour) // drain the burn pipeline
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if burns := sys.Stats().Obs.Counter("olfs.burn_tasks"); burns == 0 {
			t.Fatalf("system %d burned nothing", i)
		}
		sys = nil
		check(fmt.Sprintf("system %d", i+1))
	}

	sys, err := New(Options{
		Racks: 4, Replicas: 2, BucketBytes: 512 << 10, SampleEvery: time.Minute,
		Write: WriteConfig{Admission: AdmissionConfig{Enabled: true, MaxWait: time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Do(func(p *Proc) error {
		for f := 0; f < 40; f++ {
			err := sys.Cluster.WriteFile(p, fmt.Sprintf("/fleet/f%02d", f), bytes.Repeat([]byte{byte(f + 1)}, 256<<10))
			if err != nil && !errors.Is(err, ErrOverload) {
				return err
			}
		}
		if _, err := sys.Cluster.ReadFile(p, "/fleet/f00"); err != nil {
			return err
		}
		p.Sleep(3 * time.Hour)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats().Obs
	if st.Counter("olfs.burn_tasks") == 0 || sys.Telemetry.Passes() == 0 {
		t.Fatalf("fleet system: olfs.burn_tasks = %d, sampler passes = %d", st.Counter("olfs.burn_tasks"), sys.Telemetry.Passes())
	}
	sys = nil
	check("the fleet system")
}

// TestDrainedSystemHoldsNoGoroutine: in each of the four standing benchmark
// configurations, once Do returns on a drained System — writes acknowledged,
// read back, burned — the process runs exactly the goroutines it ran before
// New.
func TestDrainedSystemHoldsNoGoroutine(t *testing.T) {
	const kb, mb = 1 << 10, 1 << 20
	for _, c := range []struct {
		name string
		o    Options
	}{
		{"ingest-steady", Options{BucketBytes: 2 * mb, BufferSlots: 120, FS: FSConfig{RecycleAfterBurn: true}}},
		{"ingest-overload", Options{BucketBytes: 2 * mb, BufferSlots: 60, BurnCap: 380e6,
			Write: WriteConfig{Admission: AdmissionConfig{Enabled: true, CapacityBytes: 64 * mb, MaxWait: 2 * time.Minute}}}},
		{"cold-read", Options{BucketBytes: 512 * kb, BufferSlots: 108, FS: FSConfig{RecycleAfterBurn: true}}},
		{"fleet-mix", Options{Racks: 4, Replicas: 2, BucketBytes: 512 * kb, SampleEvery: time.Minute,
			FS: FSConfig{RecycleAfterBurn: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := settledGoroutines()
			c.o.TraceCapacity = -1
			sys, err := New(c.o)
			if err != nil {
				t.Fatal(err)
			}
			err = sys.Do(func(p *Proc) error {
				for f := 0; f < 24; f++ {
					path := fmt.Sprintf("/drained/f%02d", f)
					if err := sys.Cluster.WriteFile(p, path, bytes.Repeat([]byte{byte(f + 1)}, 192*kb)); err != nil {
						return err
					}
					if _, err := sys.Cluster.ReadFile(p, path); err != nil {
						return err
					}
				}
				var burns []*sim.Completion[error]
				for _, r := range sys.Cluster.Racks() {
					c, err := r.FS.FlushAndBurn(p)
					if err != nil {
						return err
					}
					burns = append(burns, c)
				}
				for _, c := range burns {
					if _, err := c.Wait(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := runtime.NumGoroutine(); n != before {
				t.Fatalf("%d goroutines after Do returned on a drained System, %d before New", n, before)
			}
		})
	}
}

// settledGoroutines returns runtime.NumGoroutine once the goroutines earlier
// tests left behind have exited: when the count has held for 10 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestOneRackSystemGrows: the default System is a one-rack federation that
// grows by AddRack. Files written and burned before the growth keep their
// replica sets (nothing is relocated), new writes reach the newcomer, and
// every file reads back through the federation.
func TestOneRackSystemGrows(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	const n = 12
	path := func(i int) string { return fmt.Sprintf("/grow/f%02d", i) }
	data := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 64<<10) }
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < n; i++ {
			if err := sys.Cluster.WriteFile(p, path(i), data(i)); err != nil {
				return err
			}
		}
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		_, err = c.Wait(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int, n)
	for i := range before {
		before[i] = sys.Cluster.ReplicasOf(path(i))
	}
	if _, err := sys.Cluster.AddRack(); err != nil {
		t.Fatal(err)
	}
	err = sys.Do(func(p *Proc) error {
		for i := n; i < 2*n; i++ {
			if err := sys.Cluster.WriteFile(p, path(i), data(i)); err != nil {
				return err
			}
		}
		for i := 0; i < 2*n; i++ {
			got, err := sys.Cluster.ReadFile(p, path(i))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data(i)) {
				return fmt.Errorf("%s: wrong bytes", path(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range before {
		if got := sys.Cluster.ReplicasOf(path(i)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: replica set %v became %v after AddRack", path(i), want, got)
		}
	}
	onNew := 0
	for i := n; i < 2*n; i++ {
		for _, ri := range sys.Cluster.ReplicasOf(path(i)) {
			if ri == 1 {
				onNew++
			}
		}
	}
	if onNew == 0 {
		t.Errorf("no file written after AddRack landed on rack 1")
	}
}
