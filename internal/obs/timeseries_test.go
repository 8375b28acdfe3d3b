package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ros/internal/sim"
)

func TestSeriesRingEviction(t *testing.T) {
	s := newSeries("", "x", KindGauge, 4)
	for i := 0; i < 10; i++ {
		s.Append(int64(i), float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	want := []float64{6, 7, 8, 9}
	for i, w := range want {
		if got := s.At(i).V; got != w {
			t.Errorf("At(%d).V = %g, want %g", i, got, w)
		}
	}
	if s.Last().V != 9 {
		t.Errorf("Last().V = %g, want 9", s.Last().V)
	}
	if pts := s.Points(2); len(pts) != 2 || pts[0].V != 8 || pts[1].V != 9 {
		t.Errorf("Points(2) = %v, want tail [8 9]", pts)
	}
}

func TestSeriesRateAndDelta(t *testing.T) {
	s := newSeries("", "c", KindCounter, 16)
	// One sample per 10s of virtual time, counter climbing 5/sample.
	for i := 0; i < 6; i++ {
		s.Append(int64(i)*int64(10*time.Second), float64(i*5))
	}
	if d := s.Delta(30 * time.Second); d != 15 {
		t.Errorf("Delta(30s) = %g, want 15", d)
	}
	if r := s.Rate(30 * time.Second); r != 0.5 {
		t.Errorf("Rate(30s) = %g, want 0.5/s", r)
	}
	// Window larger than history: full-span rate.
	if r := s.Rate(time.Hour); r != 0.5 {
		t.Errorf("Rate(1h) = %g, want 0.5/s", r)
	}
	if v := s.Agg("max", 30*time.Second); v != 25 {
		t.Errorf("Agg(max, 30s) = %g, want 25", v)
	}
	// Window cut at T=20s keeps points 10,15,20,25.
	if v := s.Agg("avg", 30*time.Second); v != 17.5 {
		t.Errorf("Agg(avg, 30s) = %g, want 17.5", v)
	}
}

// TestSamplerScrapesAndWindows drives a sampler over a live registry and
// checks cumulative counters, gauge levels and the sliding histogram p99:
// after activity stops, the windowed quantile decays back to zero.
func TestSamplerWindowedQuantilesDecay(t *testing.T) {
	env := sim.NewEnv()
	reg := New(env)
	s := NewSampler(env, SamplerConfig{Interval: 10 * time.Second})
	s.AddSource("", reg)
	s.Start()
	h := reg.Histogram("op.lat")
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			h.Observe(int64(time.Second)) // slow ops early
			p.Sleep(10 * time.Second)
		}
		reg.Counter("ops").Add(7)
		p.Sleep(6 * time.Minute) // quiet tail: the 5m window slides past the slow ops
	})
	env.Run()
	p99 := s.Get("", "op.lat.p99")
	if p99 == nil {
		t.Fatal("derived p99 series missing")
	}
	// Early in the run the window holds the slow samples.
	if v := p99.At(1).V; v < float64(500*time.Millisecond) {
		t.Errorf("early p99 = %v, want >= 500ms", time.Duration(v))
	}
	// After the quiet tail the windowed p99 must decay to zero.
	if v := p99.Last().V; v != 0 {
		t.Errorf("final windowed p99 = %v, want 0 after quiet period", time.Duration(v))
	}
	cnt := s.Get("", "op.lat.count")
	if cnt.Last().V != 0 {
		t.Errorf("final windowed count = %g, want 0", cnt.Last().V)
	}
	ops := s.Get("", "ops")
	if ops == nil || ops.Last().V != 7 {
		t.Fatalf("counter series last = %v, want 7", ops.Last().V)
	}
}

// TestSamplerDeterministicDump: two same-seed runs yield byte-identical
// series dumps.
func TestSamplerDeterministicDump(t *testing.T) {
	run := func() []byte {
		env := sim.NewEnv()
		reg := New(env)
		s := NewSampler(env, SamplerConfig{Interval: 5 * time.Second})
		s.AddSource("", reg)
		s.Start()
		env.Go("w", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				reg.Counter("a").Add(int64(i))
				reg.Gauge("g").Set(int64(i * 3))
				reg.Histogram("h").Observe(int64(i) * int64(time.Millisecond))
				p.Sleep(7 * time.Second)
			}
		})
		env.Run()
		b, err := json.Marshal(s.Dump(0))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different series dumps")
	}
}

// TestSamplerFollowsRegistry: the sampler resolves a source's metrics once and
// again when the registry changes, so a name registered after the first pass
// is sampled from the next one on.
func TestSamplerFollowsRegistry(t *testing.T) {
	reg := New(nil)
	s := NewSampler(nil, SamplerConfig{})
	s.AddSource("", reg)
	reg.Counter("a").Add(1)
	s.SampleNow()
	if got := s.Get("", "a").Last().V; got != 1 {
		t.Fatalf("a = %v, want 1", got)
	}
	reg.Counter("a").Add(1)
	reg.Gauge("g").Set(5)
	reg.Histogram("h").Observe(10)
	s.SampleNow()
	for name, want := range map[string]float64{"a": 2, "g": 5, "h.count": 1, "h.p50": 10, "h.p99": 10} {
		if sr := s.Get("", name); sr.Len() == 0 || sr.Last().V != want {
			t.Errorf("%s = %v (%d points), want %v", name, sr.Last().V, sr.Len(), want)
		}
	}
	if n := s.Get("", "a").Len(); n != 2 {
		t.Errorf("a has %d points after two passes", n)
	}
}

func TestSamplerWeakTickerDoesNotBlockRun(t *testing.T) {
	env := sim.NewEnv()
	reg := New(env)
	s := NewSampler(env, SamplerConfig{Interval: time.Second})
	s.AddSource("", reg)
	stop := s.Start()
	env.Go("w", func(p *sim.Proc) { p.Sleep(10 * time.Second) })
	done := make(chan struct{})
	go func() { env.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run blocked on the sampler daemon")
	}
	// Ticks 1s..9s fire; the tick coinciding with the worker's last event at
	// 10s is weak-only by then, so Run returns without it.
	if s.Passes() != 9 {
		t.Errorf("passes = %d, want 9", s.Passes())
	}
	stop()
}

func TestPrometheusText(t *testing.T) {
	env := sim.NewEnv()
	reg := New(env)
	reg.Counter("olfs.files_written").Add(3)
	reg.Gauge("sched.queue_depth").Set(2)
	reg.Histogram("olfs.op.read").Observe(1500)
	rackReg := New(env)
	rackReg.Counter("olfs.files_written").Add(5)
	out := PrometheusText(
		LabeledSnapshot{Label: "", Snap: reg.Snapshot()},
		LabeledSnapshot{Label: "rack0", Snap: rackReg.Snapshot()},
	)
	for _, want := range []string{
		"# TYPE ros_olfs_files_written counter",
		"ros_olfs_files_written 3",
		`ros_olfs_files_written{rack="rack0"} 5`,
		"# TYPE ros_sched_queue_depth gauge",
		"# TYPE ros_olfs_op_read histogram",
		`ros_olfs_op_read_bucket{le="2048"} 1`,
		`ros_olfs_op_read_bucket{le="+Inf"} 1`,
		"ros_olfs_op_read_sum 1500",
		"ros_olfs_op_read_count 1",
	} {
		if !contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func contains(haystack, needle string) bool {
	return bytes.Contains([]byte(haystack), []byte(needle))
}
