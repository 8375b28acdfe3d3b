package obs

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"ros/internal/sim"
)

// traceBed runs fn inside a simulation process against a fresh tracer
// attached to a fresh registry.
func traceBed(t *testing.T, cfg TracerConfig, fn func(p *sim.Proc, tr *Tracer)) *Tracer {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	tr := NewTracer(env, cfg)
	New(env).AttachTracer(tr)
	env.Go("req", func(p *sim.Proc) { fn(p, tr) })
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
	return tr
}

func TestTraceNestingAndPropagation(t *testing.T) {
	tr := traceBed(t, TracerConfig{}, func(p *sim.Proc, tr *Tracer) {
		op := tr.StartOp(p, "olfs.read", "interactive")
		op.Annotate("path", "/a")
		p.Sleep(time.Second)

		wait := StartChild(p, "sched.wait")
		p.Sleep(2 * time.Second)
		// A grandchild opened while sched.wait is current nests under it.
		move := StartChild(p, "rack.arm_move")
		p.Sleep(3 * time.Second)
		move.End(p)
		wait.End(p)

		// After End the parent context is restored: a new child attaches to
		// the root again.
		load := StartChild(p, "rack.tray_load")
		p.Sleep(4 * time.Second)
		load.End(p)

		op.Finish(p, nil)
		if got := p.TraceContext(); got != nil {
			t.Errorf("trace context after Finish = %v, want nil", got)
		}
	})

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("journal holds %d traces, want 1", len(traces))
	}
	trc := traces[0]
	if trc.Name != "olfs.read" || trc.Class != "interactive" {
		t.Errorf("trace identity = %s/%s", trc.Name, trc.Class)
	}
	if trc.Duration() != 10*time.Second {
		t.Errorf("duration = %v, want 10s", trc.Duration())
	}
	parentName := make(map[string]string)
	byID := map[int64]*TraceSpan{}
	for _, sp := range trc.Spans() {
		byID[sp.ID] = sp
	}
	for _, sp := range trc.Spans() {
		if par, ok := byID[sp.Parent]; ok {
			parentName[sp.Name] = par.Name
		}
	}
	want := map[string]string{
		"sched.wait":     "olfs.read",
		"rack.arm_move":  "sched.wait",
		"rack.tray_load": "olfs.read",
	}
	for child, par := range want {
		if parentName[child] != par {
			t.Errorf("parent of %s = %q, want %q", child, parentName[child], par)
		}
	}
	if tr.OpenSpans() != 0 || tr.Active() != 0 {
		t.Errorf("open spans=%d active=%d after finish, want 0/0", tr.OpenSpans(), tr.Active())
	}
}

func TestTraceNilSafety(t *testing.T) {
	env := sim.NewEnv()
	var tr *Tracer // tracing disabled
	if got := NewTracer(env, TracerConfig{Capacity: -1}); got != nil {
		t.Fatal("Capacity<0 should disable tracing")
	}
	env.Go("req", func(p *sim.Proc) {
		op := tr.StartOp(p, "olfs.read", "interactive")
		if op != nil {
			t.Error("disabled tracer StartOp should return nil")
		}
		op.Annotate("k", "v")
		op.AnnotateInt("n", 1)
		op.Retry()
		if op.Trace() != nil {
			t.Error("nil op Trace() should be nil")
		}
		op.Finish(p, errors.New("boom"))

		sp := StartChild(p, "sched.wait")
		if sp != nil {
			t.Error("StartChild without an active trace should return nil")
		}
		sp.Annotate("k", "v")
		if n := testing.AllocsPerRun(100, func() { sp.AnnotateInt("n", 1<<40) }); n != 0 {
			t.Errorf("AnnotateInt on a nil span allocates %v times", n)
		}
		sp.End(p)
		sp.Fail(p, errors.New("boom"))
	})
	env.Run()
	if tr.OpenSpans() != 0 || len(tr.Traces()) != 0 || tr.Trace(1) != nil {
		t.Error("nil tracer accessors should be inert")
	}
	var nilTrace *Trace
	if nilTrace.Duration() != 0 || nilTrace.Root() != nil || nilTrace.Spans() != nil ||
		nilTrace.CriticalPath() != nil || nilTrace.Format() != "" {
		t.Error("nil trace accessors should be inert")
	}
}

func TestTailSampling(t *testing.T) {
	// 1-in-3 sampling: of 9 clean traces the 1st, 4th and 7th survive. A
	// failed trace bypasses sampling entirely.
	tr := traceBed(t, TracerConfig{SampleEvery: 3},
		func(p *sim.Proc, tr *Tracer) {
			for i := 0; i < 9; i++ {
				op := tr.StartOp(p, "clean", "interactive")
				p.Sleep(time.Second)
				op.Finish(p, nil)
			}
			op := tr.StartOp(p, "broken", "interactive")
			op.Finish(p, errors.New("boom"))
		})

	if tr.started.Value() != 10 || tr.finished.Value() != 10 {
		t.Errorf("started/finished = %d/%d, want 10/10", tr.started.Value(), tr.finished.Value())
	}
	if tr.sampled.Value() != 6 {
		t.Errorf("sampled-out = %d, want 6", tr.sampled.Value())
	}
	counts := map[string]int{}
	for _, trc := range tr.Traces() {
		counts[trc.Name]++
	}
	if counts["clean"] != 3 || counts["broken"] != 1 {
		t.Errorf("journal composition = %v, want clean:3 broken:1", counts)
	}
}

func TestJournalEvictionProtectsFaultyAndSlowest(t *testing.T) {
	// Capacity 9: one faulty trace, then nine clean traces each slower than
	// the next (9 s down to 1 s). The tenth commit evicts exactly one entry:
	// the faulty trace and the 8 slowest clean ones are protected, so the
	// victim is the 1 s trace, although it is the newest.
	tr := traceBed(t, TracerConfig{Capacity: 9},
		func(p *sim.Proc, tr *Tracer) {
			op := tr.StartOp(p, "faulty", "interactive")
			op.Finish(p, errors.New("boom"))
			for d := 9; d >= 1; d-- {
				op := tr.StartOp(p, "clean", "interactive")
				p.Sleep(time.Duration(d) * time.Second)
				op.Finish(p, nil)
			}
		})

	traces := tr.Traces()
	if len(traces) != 9 {
		t.Fatalf("journal holds %d traces, want capacity 9", len(traces))
	}
	if !traces[0].Faulty() {
		t.Error("eviction dropped the faulty trace")
	}
	for i, trc := range traces[1:] {
		if want := time.Duration(9-i) * time.Second; trc.Duration() != want {
			t.Errorf("journal[%d] lasted %v, want %v (the 8 slowest kept in order)", i+1, trc.Duration(), want)
		}
	}
	if tr.evicted.Value() != 1 {
		t.Errorf("evicted = %d, want 1", tr.evicted.Value())
	}
}

func TestCriticalPathSumsExactly(t *testing.T) {
	tr := traceBed(t, TracerConfig{}, func(p *sim.Proc, tr *Tracer) {
		op := tr.StartOp(p, "olfs.read", "interactive")
		p.Sleep(time.Second) // 1s attributed to the root itself
		wait := StartChild(p, "sched.wait")
		p.Sleep(2 * time.Second)
		move := StartChild(p, "rack.arm_move") // deepest span wins its window
		p.Sleep(3 * time.Second)
		move.End(p)
		p.Sleep(time.Second) // back on sched.wait
		wait.End(p)
		leak := StartChild(p, "leaked") // never ended: attributed to root stop
		_ = leak
		p.Sleep(4 * time.Second)
		op.Finish(p, nil)
	})

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("journal holds %d traces, want 1", len(traces))
	}
	trc := traces[0]
	phases := trc.CriticalPath()
	want := map[string]time.Duration{
		"olfs.read":     time.Second,
		"sched.wait":    3 * time.Second,
		"rack.arm_move": 3 * time.Second,
		"leaked":        4 * time.Second,
	}
	var sum time.Duration
	got := map[string]time.Duration{}
	for _, ph := range phases {
		got[ph.Name] = ph.Dur
		sum += ph.Dur
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("phase %s = %v, want %v", name, got[name], d)
		}
	}
	if sum != trc.Duration() {
		t.Errorf("phase sum %v != end-to-end duration %v", sum, trc.Duration())
	}
	// The leaked span stays visible as an open span.
	if tr.OpenSpans() != 1 {
		t.Errorf("open spans = %d, want 1 (the leak)", tr.OpenSpans())
	}
}

func TestPerfettoJSONShape(t *testing.T) {
	tr := traceBed(t, TracerConfig{}, func(p *sim.Proc, tr *Tracer) {
		op := tr.StartOp(p, "olfs.read", "interactive")
		sp := StartChild(p, "optical.read")
		sp.AnnotateInt("bytes", 4096)
		p.Sleep(time.Second)
		sp.End(p)
		op.Finish(p, nil)
	})

	data, err := PerfettoJSON(tr.Traces())
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int64             `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var meta, read, root int
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M":
			meta++
		case ev.Ph == "X" && ev.Name == "optical.read":
			read++
			if ev.Dur != 1e6 { // 1 virtual second in microseconds
				t.Errorf("optical.read dur = %v us, want 1e6", ev.Dur)
			}
			if ev.Args["bytes"] != "4096" || ev.Args["parent_id"] == "0" {
				t.Errorf("optical.read args = %v", ev.Args)
			}
		case ev.Ph == "X" && ev.Name == "olfs.read":
			root++
			if ev.Args["parent_id"] != "0" {
				t.Errorf("root parent_id = %v", ev.Args["parent_id"])
			}
		}
	}
	if meta != 1 || read != 1 || root != 1 {
		t.Errorf("event counts meta=%d read=%d root=%d, want 1/1/1", meta, read, root)
	}
}

func TestRegistryFoldsTracerSpans(t *testing.T) {
	env := sim.NewEnv()
	reg := New(env)
	tr := NewTracer(env, TracerConfig{})
	reg.AttachTracer(tr)
	env.Go("req", func(p *sim.Proc) {
		op := tr.StartOp(p, "olfs.read", "interactive")
		sp := StartChild(p, "leaked")
		_ = sp
		op.Finish(p, nil)
	})
	env.Run()

	if reg.Tracer() != tr {
		t.Error("Tracer accessor mismatch")
	}
	if got := reg.OpenSpans(); got != 1 {
		t.Errorf("Registry.OpenSpans = %d, want 1 (leaked trace span)", got)
	}
	snap := reg.Snapshot()
	if len(snap.Warnings) == 0 {
		t.Error("snapshot should warn about the leaked span")
	}
	vals := map[string]int64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["trace.started"] != 1 || vals["trace.finished"] != 1 || vals["trace.captured"] != 1 {
		t.Errorf("trace counters = %v", vals)
	}
}
