package ros

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ros/internal/obs"
)

// TestColdReadTraceChain is the acceptance check for causal request tracing:
// a cold read (bucket recycled after burn, so the file must come back through
// the mechanical library) produces a single trace whose span tree contains
// the full causal chain olfs.read -> sched.wait -> rack.arm_move ->
// rack.tray_load -> optical.spinup -> optical.read, whose critical-path
// phases sum exactly to the end-to-end virtual latency, and whose Perfetto
// export is valid Chrome trace_event JSON carrying every chain span.
func TestColdReadTraceChain(t *testing.T) {
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
		// Burned arrays stay in their drives; put them back so the read is
		// cold.
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

	tr := sys.FS.Tracer()
	var read *obs.Trace
	for _, trc := range tr.Traces() {
		if trc.Name == "olfs.read" {
			read = trc
		}
	}
	if read == nil {
		t.Fatal("no olfs.read trace in the journal")
	}
	if read.Class != "interactive" {
		t.Errorf("read trace class = %q, want interactive", read.Class)
	}

	// Every chain span must be present and must descend from the root.
	byID := map[int64]*obs.TraceSpan{}
	for _, sp := range read.Spans() {
		byID[sp.ID] = sp
	}
	rootID := read.Root().ID
	descendsFromRoot := func(sp *obs.TraceSpan) bool {
		for sp != nil {
			if sp.ID == rootID {
				return true
			}
			sp = byID[sp.Parent]
		}
		return false
	}
	chain := []string{"olfs.read", "sched.wait", "rack.arm_move",
		"rack.tray_load", "optical.spinup", "optical.read"}
	found := map[string]bool{}
	for _, sp := range read.Spans() {
		if !descendsFromRoot(sp) {
			t.Errorf("span %s (id %d) does not descend from the olfs.read root", sp.Name, sp.ID)
		}
		found[sp.Name] = true
		if sp.Stop < sp.Start {
			t.Errorf("span %s has negative duration", sp.Name)
		}
	}
	for _, name := range chain {
		if !found[name] {
			t.Errorf("causal chain is missing span %s (have %v)", name, found)
		}
	}

	// Critical-path phases sum exactly (+-0) to the end-to-end latency.
	var sum time.Duration
	for _, ph := range read.CriticalPath() {
		sum += ph.Dur
	}
	if sum != read.Duration() {
		t.Errorf("critical-path sum %v != end-to-end latency %v", sum, read.Duration())
	}
	if read.Duration() <= 0 {
		t.Error("cold read took no virtual time")
	}

	// Perfetto export: valid JSON, one complete event per chain span on the
	// read trace's lane.
	data, err := obs.PerfettoJSON([]*obs.Trace{read})
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	exported := map[string]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Tid != read.ID {
			t.Errorf("span %s exported on lane %d, want %d", ev.Name, ev.Tid, read.ID)
		}
		exported[ev.Name] = true
	}
	for _, name := range chain {
		if !exported[name] {
			t.Errorf("perfetto export is missing span %s", name)
		}
	}

	// The workload drained: no span leaks, no snapshot warnings.
	st := sys.Stats()
	if st.Obs.OpenSpans != 0 {
		t.Errorf("open spans at quiescence = %d, want 0", st.Obs.OpenSpans)
	}
	if len(st.Obs.Warnings) != 0 {
		t.Errorf("snapshot warnings = %v, want none", st.Obs.Warnings)
	}
}
