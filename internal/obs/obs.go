// Package obs is ROS's unified observability layer: counters, gauges and
// log-bucketed latency histograms, all keyed off the simulation's virtual
// clock (sim.Env.Now) so that every metric is exactly reproducible under a
// fixed seed.
//
// Design constraints, in order:
//
//  1. Determinism. No wall-clock time, no map-iteration order leaking into
//     output: Snapshot sorts every section by name, so two same-seed runs
//     produce byte-identical JSON.
//  2. Zero-cost opt-out. Every handle method is nil-safe: a subsystem that
//     was never attached to a Registry can call Counter.Add or
//     Histogram.ObserveSince on nil handles freely. Unit tests of leaf
//     packages need no obs setup.
//
// The registry is the only store of a count: components hold *Counter
// handles and keep no copy of their own, and readers go through a handle's
// Value or Snapshot.Counter.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"ros/internal/sim"
)

// Registry owns all metrics for one simulation environment. It is not safe
// for host-level concurrency, which is fine: the cooperative scheduler runs
// exactly one process at a time.
type Registry struct {
	env      *sim.Env
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gen      int     // bumped whenever a name is registered (the sampler's cache key)
	tracer   *Tracer // optional causal request tracer (see trace.go)
}

// New creates a registry bound to env's virtual clock.
func New(env *sim.Env) *Registry {
	return &Registry{
		env:      env,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Env returns the simulation environment the registry is bound to (nil for a
// detached registry).
func (r *Registry) Env() *sim.Env {
	if r == nil {
		return nil
	}
	return r.env
}

// now returns the registry's virtual time, or zero when detached.
func (r *Registry) now() time.Duration {
	if r == nil || r.env == nil {
		return 0
	}
	return r.env.Now()
}

// Counter returns the counter with the given name, creating it (with its own
// storage) on first use. Nil registries return a nil, still-usable handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.gen++
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.gen++
	return g
}

// Histogram returns the log-bucketed histogram with the given name, creating
// it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(name)
	r.hists[name] = h
	r.gen++
	return h
}

// Counter is a monotonically increasing (by convention) int64 metric. The
// zero of a nil handle is inert: Add is a no-op and Value returns 0.
type Counter struct {
	v int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous int64 level (queue depths, dirty chunks).
type Gauge struct {
	v int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the number of power-of-two buckets: bucket i holds samples
// whose value v satisfies bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the full non-negative int64 range.
const histBuckets = 65

// Histogram records a distribution of int64 samples (typically virtual-time
// latencies in nanoseconds) in logarithmic buckets. Quantile estimates
// interpolate linearly inside the chosen bucket and clamp to the observed
// min/max, which keeps estimates exact for single-valued distributions.
type Histogram struct {
	name    string
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns a detached histogram (usable without a Registry, e.g.
// by experiments that only need local percentiles).
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveSince records the elapsed virtual time from start to now as a
// nanosecond sample.
func (h *Histogram) ObserveSince(start, now time.Duration) {
	h.Observe(int64(now - start))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). The estimate
// interpolates linearly within the selected power-of-two bucket and is
// clamped to [Min, Max]; it is exact when all samples share one value.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	v := BucketQuantile(h.buckets[:], h.count, q)
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// BucketBound returns the exclusive upper bound of power-of-two bucket i
// (the le= boundary for Prometheus exposition).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return int64(1) << i
}

// BucketQuantile estimates the q-quantile of count samples distributed in
// power-of-two buckets (the Histogram layout). It interpolates linearly
// within the selected bucket; callers with known min/max should clamp. It is
// the shared primitive behind Histogram.Quantile, windowed quantiles over
// bucket deltas (timeseries.go) and merged multi-rack snapshots (merging
// combines bucket counts and re-derives quantiles — averaging per-rack
// percentiles would be statistically wrong).
func BucketQuantile(buckets []int64, count int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	var seen float64
	var last int64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		lo, hi := int64(0), int64(1)
		if i > 0 {
			lo = int64(1) << (i - 1)
			hi = lo * 2
		}
		if seen+float64(n) >= rank {
			frac := (rank - seen) / float64(n)
			return int64(float64(lo) + frac*float64(hi-lo))
		}
		seen += float64(n)
		last = hi
	}
	return last
}

// OpenSpans returns the number of unfinished trace spans of the attached
// Tracer — the figure leak tests assert is zero after a workload drains.
func (r *Registry) OpenSpans() int {
	if r == nil {
		return 0
	}
	return r.tracer.OpenSpans()
}

// AttachTracer binds a Tracer to the registry: its open trace spans count
// toward OpenSpans (and the span-leak warning in Snapshot), and its lifecycle
// stats count into trace.* counters. A nil tracer detaches.
func (r *Registry) AttachTracer(t *Tracer) {
	if r == nil {
		return
	}
	r.tracer = t
	if t != nil {
		t.started = r.Counter("trace.started")
		t.finished = r.Counter("trace.finished")
		t.captured = r.Counter("trace.captured")
		t.sampled = r.Counter("trace.sampled_out")
		t.evicted = r.Counter("trace.evicted")
	}
}

// Tracer returns the attached tracer, or nil.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// CounterSnapshot is one counter in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge in a Snapshot.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram in a Snapshot. All duration-valued
// fields are virtual-time nanoseconds.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum_ns"`
	Min   int64   `json:"min_ns"`
	Max   int64   `json:"max_ns"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
	// Buckets carries the raw power-of-two bucket counts (trailing zeros
	// trimmed) so snapshots can be merged across racks by combining counts
	// and re-deriving quantiles, and exported in Prometheus bucket form.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of every metric in a registry, with all
// sections sorted by name for deterministic serialization.
type Snapshot struct {
	Now        int64               `json:"now_ns"` // virtual time of the snapshot
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
	OpenSpans  int                 `json:"open_spans"`
	// Warnings flags observability-health problems visible at snapshot time —
	// currently trace span leaks (OpenSpans > 0 means some operation started
	// a trace span and never closed it, e.g. an orphaned requeue path).
	// Empty on a healthy registry, omitted from JSON when empty.
	Warnings []string `json:"warnings,omitempty"`
}

// Snapshot exports all metrics. Safe on a nil registry (returns zero value).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Now = int64(r.now())
	s.OpenSpans = r.OpenSpans()
	if s.OpenSpans > 0 {
		s.Warnings = append(s.Warnings, fmt.Sprintf(
			"span leak: %d trace span(s) still open", s.OpenSpans))
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for _, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// snapshot exports the histogram, quantiles derived from its buckets.
func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Name:    h.name,
		Count:   h.Count(),
		Sum:     h.Sum(),
		Min:     h.Min(),
		Max:     h.Max(),
		Mean:    h.Mean(),
		P50:     h.Quantile(0.50),
		P95:     h.Quantile(0.95),
		P99:     h.Quantile(0.99),
		Buckets: trimBuckets(h.buckets[:]),
	}
}

// merge adds a snapshot's samples to the histogram: bucket counts, count and
// sum add up, and min and max widen.
func (h *Histogram) merge(s HistogramSnapshot) {
	if h.count == 0 || s.Min < h.min {
		h.min = s.Min
	}
	if h.count == 0 || s.Max > h.max {
		h.max = s.Max
	}
	for i, n := range s.Buckets {
		if i < histBuckets {
			h.buckets[i] += n
		}
	}
	h.count += s.Count
	h.sum += s.Sum
}

// Counter returns the value of the named counter, or 0 when the snapshot has
// none by that name.
func (s Snapshot) Counter(name string) int64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value
	}
	return 0
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// trimBuckets copies bucket counts with trailing zeros removed (nil when all
// zero), keeping snapshot JSON compact while preserving mergeability.
func trimBuckets(b []int64) []int64 {
	last := -1
	for i, n := range b {
		if n != 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]int64, last+1)
	copy(out, b[:last+1])
	return out
}

// MergeSnapshots combines per-rack snapshots into one cluster-wide view:
// counters and gauges with the same name sum; histograms merge by combining
// raw bucket counts and re-deriving quantiles from the combined distribution.
// Averaging per-rack percentiles would be wrong — a rack with 10 slow reads
// and a rack with 10000 fast ones would report a p99 near the midpoint
// instead of near the fast mass. Now is the max of the inputs' Now.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	counters := map[string]int64{}
	gauges := map[string]int64{}
	hists := map[string]*Histogram{}
	for _, s := range snaps {
		if s.Now > out.Now {
			out.Now = s.Now
		}
		out.OpenSpans += s.OpenSpans
		out.Warnings = append(out.Warnings, s.Warnings...)
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gauges[g.Name] += g.Value
		}
		for _, h := range s.Histograms {
			if h.Count == 0 {
				continue
			}
			a, ok := hists[h.Name]
			if !ok {
				a = NewHistogram(h.Name)
				hists[h.Name] = a
			}
			a.merge(h)
		}
	}
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterSnapshot{Name: name, Value: v})
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, GaugeSnapshot{Name: name, Value: v})
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, h.snapshot())
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// String renders a compact human-readable form of the snapshot.
func (s Snapshot) String() string {
	out := fmt.Sprintf("t=%s spans_open=%d\n", time.Duration(s.Now), s.OpenSpans)
	for _, w := range s.Warnings {
		out += fmt.Sprintf("  WARNING %s\n", w)
	}
	for _, c := range s.Counters {
		out += fmt.Sprintf("  counter %-32s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		out += fmt.Sprintf("  gauge   %-32s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		out += fmt.Sprintf("  hist    %-32s n=%d p50=%s p95=%s p99=%s max=%s\n",
			h.Name, h.Count,
			time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99), time.Duration(h.Max))
	}
	return out
}
