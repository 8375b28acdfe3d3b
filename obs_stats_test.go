package ros

import (
	"bytes"
	"fmt"
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

// TestOneTracerPerSystem: every rack records into the federation's one
// tracer, so each rack's olfs.burn shows in Cluster.Tracer() (what `rosctl
// trace` lists), trace IDs never repeat, and trace.* is counted once, in the
// system registry.
func TestOneTracerPerSystem(t *testing.T) {
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
	tr := sys.Cluster.Tracer()
	burns := int64(0)
	err = sys.Do(func(p *Proc) error {
		for _, path := range []string{"/a", "/b"} {
			if err := sys.Cluster.WriteFile(p, path, make([]byte, 20<<20)); err != nil {
				return err
			}
		}
		for _, r := range sys.Cluster.Racks() {
			if r.FS.Tracer() != tr {
				t.Errorf("%s records into its own tracer", r.Name)
			}
			c, err := r.FS.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
			if n := r.Reg.Counter("olfs.burn_tasks").Value(); n == 0 {
				t.Errorf("%s burned nothing", r.Name)
			} else {
				burns += n
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	traced := int64(0)
	for _, x := range tr.Traces() {
		if ids[x.ID] {
			t.Errorf("trace ID %d repeats", x.ID)
		}
		ids[x.ID] = true
		if x.Name == "olfs.burn" {
			traced++
		}
	}
	if traced != burns {
		t.Errorf("Cluster.Tracer() holds %d olfs.burn traces, the racks ran %d burns", traced, burns)
	}
	if got := sys.MergedObs().Counter("trace.started"); got != int64(len(ids)) {
		t.Errorf("merged trace.started = %d, want %d (one per trace)", got, len(ids))
	}
	for i := range sys.Cluster.Racks() {
		for _, c := range sys.RackObs(i).Counters {
			if strings.HasPrefix(c.Name, "trace.") {
				t.Errorf("rack%d carries %s = %d; traces are counted in the system registry only", i, c.Name, c.Value)
			}
		}
	}
}

// gauge returns the named gauge of s, or false when s has none.
func gauge(s obs.Snapshot, name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// TestMergedBufferPctIsFullestRack: the merged view reports a per-rack
// percentage as the fullest rack's (what write-buffer-full alerts on), not
// as the sum over the racks.
func TestMergedBufferPctIsFullestRack(t *testing.T) {
	sys, err := New(Options{Racks: 2, Replicas: 1, BufferSlots: 4, BucketBytes: 1 << 20, DisableAutoBurn: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		for i, kb := range []int{1200, 200, 200} {
			if err := sys.Cluster.WriteFile(p, fmt.Sprintf("/f%d", i), make([]byte, kb<<10)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const name = "writepath.buffer_pct"
	var fullest int64
	var per []int64
	for i := range sys.Cluster.Racks() {
		v, ok := gauge(sys.RackObs(i), name)
		if !ok {
			t.Fatalf("rack%d has no %s", i, name)
		}
		per = append(per, v)
		fullest = max(fullest, v)
	}
	if per[0] == per[1] || min(per[0], per[1]) == 0 {
		t.Fatalf("test premise broken: want two different non-zero fills, got %v", per)
	}
	if got, _ := gauge(sys.MergedObs(), name); got != fullest {
		t.Errorf("merged %s = %d, want the fullest rack's %d (racks: %v)", name, got, fullest, per)
	}
	if got, _ := gauge(sys.Stats().Obs, name); got != fullest {
		t.Errorf("Stats().Obs %s = %d, want %d", name, got, fullest)
	}
}
