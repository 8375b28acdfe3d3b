package ros

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ros/internal/obs"
)

// runObsWorkload drives one System through a full write/burn/fetch/read cycle
// and returns the serialized unified snapshot.
func runObsWorkload(t *testing.T) (Stats, []byte) {
	t.Helper()
	sys, err := New(Options{
		BucketBytes: 1 << 20,
		FS:          FSConfig{RecycleAfterBurn: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < 3; i++ {
			name := "/data/part-" + string(rune('a'+i))
			if err := sys.FS.WriteFile(p, name, bytes.Repeat([]byte{byte(i + 1)}, 900<<10)); err != nil {
				return err
			}
		}
		p.Sleep(3 * time.Hour) // drain the auto-burn pipeline
		// The recycled buckets and the arrays put back in their trays force
		// this read through the fetch path.
		if err := sys.FS.UnloadIdle(p); err != nil {
			return err
		}
		if _, err := sys.FS.ReadFile(p, "/data/part-a"); err != nil {
			return err
		}
		p.Sleep(time.Hour) // let fetched trays unload
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	js, err := st.Obs.JSON()
	if err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	return st, js
}

func findHist(s obs.Snapshot, name string) (obs.HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistogramSnapshot{}, false
}

// TestStatsSnapshotDeterministic is the acceptance check for the unified
// observability layer: two same-seed runs of an identical workload must emit
// byte-identical snapshots, and the snapshot must carry the burn and fetch
// latency histograms with sane percentiles.
func TestStatsSnapshotDeterministic(t *testing.T) {
	st1, js1 := runObsWorkload(t)
	_, js2 := runObsWorkload(t)
	if !bytes.Equal(js1, js2) {
		t.Errorf("same-seed snapshots differ:\nrun1: %s\nrun2: %s", js1, js2)
	}

	for _, name := range []string{"olfs.burn.latency", "olfs.fetch.latency"} {
		h, ok := findHist(st1.Obs, name)
		if !ok {
			t.Errorf("snapshot missing histogram %s", name)
			continue
		}
		if h.Count == 0 {
			t.Errorf("%s recorded no samples", name)
		}
		if h.P50 <= 0 || h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > h.Max {
			t.Errorf("%s percentiles out of order: p50=%d p95=%d p99=%d max=%d",
				name, h.P50, h.P95, h.P99, h.Max)
		}
	}

	if st1.Obs.Counter("olfs.fetch_tasks") == 0 {
		t.Error("workload never exercised the fetch path")
	}
	if st1.Obs.OpenSpans != 0 {
		t.Errorf("open spans at quiescence = %d, want 0", st1.Obs.OpenSpans)
	}
}

// TestEventCountersCountEachEventOnce: every rack shares one clock, so an
// event emitted on it is counted once, in the system registry, and a merged
// view's events.rack.load equals the racks' tray loads.
func TestEventCountersCountEachEventOnce(t *testing.T) {
	sys, err := New(Options{
		Racks:           3,
		BucketBytes:     4 << 20,
		DisableAutoBurn: true,
		FS:              FSConfig{RecycleAfterBurn: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		for _, path := range []string{"/a", "/b"} {
			if err := sys.Cluster.WriteFile(p, path, make([]byte, 20<<20)); err != nil {
				return err
			}
		}
		for _, r := range sys.Cluster.Racks() {
			c, err := r.FS.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Env.Emit("olfs.burn.interrupt", "burner", "g0")
	sys.Env.Emit("olfs.burn.interrupt", "burner", "g1")

	merged := sys.MergedObs()
	loads := merged.Counter("rack.loads")
	if loads == 0 {
		t.Fatal("the burns loaded no tray")
	}
	if got := merged.Counter("events.rack.load"); got != loads {
		t.Errorf("merged events.rack.load = %d, want rack.loads = %d", got, loads)
	}
	if got := merged.Counter("events.olfs.burn.interrupt"); got != 2 {
		t.Errorf("merged events.olfs.burn.interrupt = %d, want 2", got)
	}
	for i := range sys.Cluster.Racks() {
		for _, c := range sys.RackObs(i).Counters {
			if strings.HasPrefix(c.Name, "events.") {
				t.Errorf("rack%d carries %s = %d; events are counted in the system registry only", i, c.Name, c.Value)
			}
		}
	}
}
