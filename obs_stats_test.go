package ros

import (
	"bytes"
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
