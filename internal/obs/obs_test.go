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
	r.Histogram("w").ObserveSince(0, time.Second)
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

// TestObserveSinceVirtualTime: a latency is the virtual time between the
// caller's start and its end, however long the host took.
func TestObserveSinceVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	r := New(env)
	h := r.Histogram("work.latency")
	env.Go("worker", func(p *sim.Proc) {
		start := p.Now()
		p.Sleep(42 * time.Second)
		h.ObserveSince(start, p.Now())
	})
	env.Run()
	if h.Count() != 1 || h.Max() != int64(42*time.Second) {
		t.Fatalf("observed n=%d max=%d, want 1 sample of 42s", h.Count(), h.Max())
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
				start := p.Now()
				p.Sleep(time.Duration(env.Rand().Intn(1000)+i) * time.Millisecond)
				r.Histogram("op.latency").ObserveSince(start, p.Now())
				r.Counter("ops").Add(1)
				r.Gauge("depth").Set(int64(i))
				env.Emit("tick", p.Name(), func() string { return "" })
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
