package obs

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/sim"
)

func TestCounterOwnStorage(t *testing.T) {
	r := New(sim.NewEnv())
	c := r.Counter("a")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if r.Counter("a") != c {
		t.Fatalf("Counter should return the same handle for the same name")
	}
}

func TestSnapshotCounter(t *testing.T) {
	a, b := New(nil), New(nil)
	a.Counter("x").Add(3)
	a.Counter("z").Add(1)
	b.Counter("x").Add(4)
	b.Counter("y").Add(2)
	for _, tc := range []struct {
		name string
		snap Snapshot
		key  string
		want int64
	}{
		{"present", a.Snapshot(), "x", 3},
		{"present last", a.Snapshot(), "z", 1},
		{"absent between", a.Snapshot(), "y", 0},
		{"absent past end", a.Snapshot(), "zz", 0},
		{"empty snapshot", Snapshot{}, "x", 0},
		{"merged sum", MergeSnapshots(a.Snapshot(), b.Snapshot()), "x", 7},
		{"merged one side", MergeSnapshots(a.Snapshot(), b.Snapshot()), "y", 2},
	} {
		if got := tc.snap.Counter(tc.key); got != tc.want {
			t.Errorf("%s: Counter(%q) = %d, want %d", tc.name, tc.key, got, tc.want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	r.StartSpan("w").End()
	r.StartSpan("w").Cancel()
	if r.OpenSpans() != 0 || r.Counter("x").Value() != 0 {
		t.Fatal("nil registry must be inert")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram must be inert")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("t")
	// One sample per value around every boundary of interest.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1 << 40, 41},
	}
	for _, c := range cases {
		h.Observe(c.v)
		if h.buckets[c.bucket] == 0 {
			t.Fatalf("value %d did not land in bucket %d", c.v, c.bucket)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	if h.Min() != 0 || h.Max() != 1<<40 {
		t.Fatalf("min/max = %d/%d, want 0/%d", h.Min(), h.Max(), int64(1)<<40)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("t")
	// Single-valued distribution: every quantile must be exact.
	for i := 0; i < 100; i++ {
		h.Observe(5000)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 5000 {
			t.Fatalf("Quantile(%v) = %d, want 5000", q, got)
		}
	}

	// Bimodal: 90 fast samples, 10 slow ones. p50 must sit in the fast
	// bucket, p99 in the slow one.
	h2 := NewHistogram("t2")
	for i := 0; i < 90; i++ {
		h2.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1 << 30)
	}
	if p50 := h2.Quantile(0.5); p50 < 64 || p50 >= 256 {
		t.Fatalf("p50 = %d, want within the [64,256) buckets around 100", p50)
	}
	if p99 := h2.Quantile(0.99); p99 < 1<<29 {
		t.Fatalf("p99 = %d, want in the slow mode (>= 2^29)", p99)
	}
	if h2.Quantile(1) != 1<<30 {
		t.Fatalf("p100 = %d, want max", h2.Quantile(1))
	}
	if mean := h2.Mean(); mean <= 100 || mean >= 1<<30 {
		t.Fatalf("mean = %v, want between modes", mean)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram("t")
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample must clamp to 0: min=%d max=%d n=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestSpanVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	r := New(env)
	env.Go("worker", func(p *sim.Proc) {
		sp := r.StartSpan("work.latency")
		p.Sleep(42 * time.Second)
		sp.End()
		sp.End() // idempotent
	})
	env.Run()
	if r.OpenSpans() != 0 {
		t.Fatalf("open spans = %d, want 0", r.OpenSpans())
	}
	h := r.Histogram("work.latency")
	if h.Count() != 1 || h.Max() != int64(42*time.Second) {
		t.Fatalf("span observed n=%d max=%d, want 1 sample of 42s", h.Count(), h.Max())
	}
}

func TestSpanCancelRecordsNothing(t *testing.T) {
	env := sim.NewEnv()
	r := New(env)
	sp := r.StartSpan("x")
	if r.OpenSpans() != 1 {
		t.Fatalf("open = %d, want 1", r.OpenSpans())
	}
	sp.Cancel()
	sp.End() // after Cancel, End must be a no-op
	if r.OpenSpans() != 0 || r.Histogram("x").Count() != 0 {
		t.Fatalf("cancelled span must not observe: open=%d n=%d", r.OpenSpans(), r.Histogram("x").Count())
	}
}

// TestSpanBalanceUnderRequeue models the burn-task pattern: a task is
// started, interrupted (span ends with the partial duration), requeued and
// resumed under a fresh span. Opens and closes must balance and both run
// segments must be recorded.
func TestSpanBalanceUnderRequeue(t *testing.T) {
	env := sim.NewEnv()
	r := New(env)
	q := sim.NewQueue[int](env)
	q.Push(0) // attempt number
	done := false
	env.GoDaemon("runner", func(p *sim.Proc) {
		for {
			attempt, ok := q.Pop(p)
			if !ok {
				return
			}
			sp := r.StartSpan("task.latency")
			p.Sleep(10 * time.Second)
			if attempt == 0 {
				sp.End() // interrupted: partial run still measured
				q.Push(attempt + 1)
				continue
			}
			p.Sleep(5 * time.Second)
			sp.End()
			done = true
		}
	})
	env.Run()
	if !done {
		t.Fatal("task did not finish")
	}
	if r.OpenSpans() != 0 {
		t.Fatalf("open spans = %d, want 0 after requeue cycle", r.OpenSpans())
	}
	h := r.Histogram("task.latency")
	if h.Count() != 2 {
		t.Fatalf("segments = %d, want 2", h.Count())
	}
	if h.Min() != int64(10*time.Second) || h.Max() != int64(15*time.Second) {
		t.Fatalf("min/max = %v/%v, want 10s/15s",
			time.Duration(h.Min()), time.Duration(h.Max()))
	}
}

func TestEmitFeedsEventCounters(t *testing.T) {
	env := sim.NewEnv()
	r := New(env)
	env.Emit("olfs.burn.interrupt", "burner", "g0")
	env.Emit("olfs.burn.interrupt", "burner", "g1")
	env.Emit("rack.load", "arm", "")
	if got := r.Counter("events.olfs.burn.interrupt").Value(); got != 2 {
		t.Fatalf("events.olfs.burn.interrupt = %d, want 2", got)
	}
	if got := r.Counter("events.rack.load").Value(); got != 1 {
		t.Fatalf("events.rack.load = %d, want 1", got)
	}
}

func TestLogfFeedsSinksAndLegacyTrace(t *testing.T) {
	env := sim.NewEnv()
	r := New(env)
	legacy := 0
	env.SetTrace(func(tm time.Duration, name, msg string) { legacy++ })
	env.Go("p", func(p *sim.Proc) { p.Logf("hello %d", 1) })
	env.Run()
	if legacy != 1 {
		t.Fatalf("legacy trace calls = %d, want 1", legacy)
	}
	if got := r.Counter("events.log").Value(); got != 1 {
		t.Fatalf("events.log = %d, want 1", got)
	}
}

// TestSnapshotDeterministic runs the same simulated workload twice and
// requires byte-identical snapshot JSON.
func TestSnapshotDeterministic(t *testing.T) {
	run := func() []byte {
		env := sim.NewEnv()
		env.Seed(7)
		r := New(env)
		for i := 0; i < 4; i++ {
			i := i
			env.Go("w", func(p *sim.Proc) {
				sp := r.StartSpan("op.latency")
				p.Sleep(time.Duration(env.Rand().Intn(1000)+i) * time.Millisecond)
				sp.End()
				r.Counter("ops").Add(1)
				r.Gauge("depth").Set(int64(i))
				env.Emit("tick", p.Name(), "")
			})
		}
		env.Run()
		b, err := r.Snapshot().JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed snapshots differ:\n%s\n----\n%s", a, b)
	}
	if len(a) == 0 || !bytes.Contains(a, []byte(`"op.latency"`)) {
		t.Fatalf("snapshot missing histogram: %s", a)
	}
}
