// Time-series telemetry: a sim-clock-driven sampler that periodically scrapes
// every registered counter, gauge and histogram into fixed-capacity ring-buffer
// series. Counters are stored cumulatively (rates and deltas are derived on
// demand over a window); histograms additionally produce sliding-window
// quantile series (<name>.p50/.p95/.p99/.count) computed from bucket-count
// deltas, so a burst of slow reads shows up — and decays — in p99 instead of
// being diluted by the full run history.
//
// The sampler ticks on Env.AfterWeak callbacks, so it samples whenever the
// workload advances virtual time but never keeps Env.Run from returning once
// only the ticker remains, and parks no process between ticks. Everything is
// deterministic: sources are scraped in registration order, metric names in
// sorted order, and all timestamps are virtual — two same-seed runs produce
// byte-identical series dumps.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"ros/internal/sim"
)

// SeriesKind tags how a series' points should be interpreted.
type SeriesKind string

const (
	KindCounter SeriesKind = "counter" // cumulative; use Rate/Delta
	KindGauge   SeriesKind = "gauge"   // instantaneous level
	KindDerived SeriesKind = "derived" // windowed histogram statistic
)

// Point is one sample: virtual time in nanoseconds and a value.
type Point struct {
	T int64   `json:"t_ns"`
	V float64 `json:"v"`
}

// Series is a fixed-capacity ring buffer of samples for one metric under one
// source label. Appending beyond capacity evicts the oldest point.
type Series struct {
	Name  string
	Label string
	Kind  SeriesKind

	cap  int
	pts  []Point
	head int // index of the oldest point
	n    int
}

func newSeries(label, name string, kind SeriesKind, capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{Name: name, Label: label, Kind: kind, cap: capacity, pts: make([]Point, capacity)}
}

// Append records one sample, evicting the oldest when full.
func (s *Series) Append(t int64, v float64) {
	if s.n < s.cap {
		s.pts[(s.head+s.n)%s.cap] = Point{T: t, V: v}
		s.n++
		return
	}
	s.pts[s.head] = Point{T: t, V: v}
	s.head = (s.head + 1) % s.cap
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// At returns the i-th oldest retained point (0 = oldest).
func (s *Series) At(i int) Point {
	return s.pts[(s.head+i)%s.cap]
}

// Last returns the newest point (zero value when empty).
func (s *Series) Last() Point {
	if s == nil || s.n == 0 {
		return Point{}
	}
	return s.At(s.n - 1)
}

// Points returns a copy of all retained points, oldest first. The optional
// tail bounds the result to the newest tail points (tail <= 0 means all).
func (s *Series) Points(tail int) []Point {
	if s == nil {
		return nil
	}
	start := 0
	if tail > 0 && s.n > tail {
		start = s.n - tail
	}
	out := make([]Point, 0, s.n-start)
	for i := start; i < s.n; i++ {
		out = append(out, s.At(i))
	}
	return out
}

// windowStart returns the index of the first retained point inside the
// window ending at the newest point, and whether any point qualifies.
func (s *Series) windowStart(window time.Duration) (int, bool) {
	if s == nil || s.n == 0 {
		return 0, false
	}
	cut := s.Last().T - int64(window)
	for i := 0; i < s.n; i++ {
		if s.At(i).T >= cut {
			return i, true
		}
	}
	return 0, false
}

// Delta returns newest-minus-oldest value over the trailing window. For
// counters this is the number of events in the window.
func (s *Series) Delta(window time.Duration) float64 {
	i, ok := s.windowStart(window)
	if !ok || i == s.n-1 {
		return 0
	}
	return s.Last().V - s.At(i).V
}

// Rate returns the per-second rate of change over the trailing window
// (counter increments per virtual second). Zero with fewer than two points.
func (s *Series) Rate(window time.Duration) float64 {
	i, ok := s.windowStart(window)
	if !ok || i == s.n-1 {
		return 0
	}
	first, last := s.At(i), s.Last()
	dt := float64(last.T-first.T) / float64(time.Second)
	if dt <= 0 {
		return 0
	}
	return (last.V - first.V) / dt
}

// Agg reduces the trailing window with the named aggregation: "last" (the
// newest value, the default), "min", "max", "avg", "sum", "rate" (per-second
// change) or "delta" (newest minus oldest).
func (s *Series) Agg(fn string, window time.Duration) float64 {
	switch fn {
	case "", "last":
		return s.Last().V
	case "rate":
		return s.Rate(window)
	case "delta":
		return s.Delta(window)
	}
	i, ok := s.windowStart(window)
	if !ok {
		return 0
	}
	v := s.At(i).V
	mn, mx, sum := v, v, 0.0
	cnt := 0
	for ; i < s.n; i++ {
		v = s.At(i).V
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
		cnt++
	}
	switch fn {
	case "min":
		return mn
	case "max":
		return mx
	case "avg":
		return sum / float64(cnt)
	case "sum":
		return sum
	}
	return s.Last().V
}

// histTrack retains cumulative histogram states so windowed quantiles can be
// computed from bucket-count deltas between now and the window start. The
// ring's entries hold their bucket counts by value, so a scrape copies into
// them and allocates nothing.
type histTrack struct {
	cap     int
	entries []histEntry
	head, n int
	delta   [histBuckets]int64 // windowDelta's result, reused scrape to scrape
}

type histEntry struct {
	t       int64
	count   int64
	buckets [histBuckets]int64
}

// push records h's current cumulative state at time t.
func (ht *histTrack) push(t int64, h *Histogram) {
	var e *histEntry
	if ht.n < ht.cap {
		e = &ht.entries[(ht.head+ht.n)%ht.cap]
		ht.n++
	} else {
		e = &ht.entries[ht.head]
		ht.head = (ht.head + 1) % ht.cap
	}
	e.t, e.count, e.buckets = t, h.count, h.buckets
}

func (ht *histTrack) at(i int) *histEntry { return &ht.entries[(ht.head+i)%ht.cap] }

// windowDelta returns the bucket-count delta between the newest entry and the
// newest entry at or before the window start (zero baseline when the window
// covers all retained history). The slice is valid until the next call.
func (ht *histTrack) windowDelta(window time.Duration) (buckets []int64, count int64) {
	if ht.n == 0 {
		return nil, 0
	}
	cur := ht.at(ht.n - 1)
	cut := cur.t - int64(window)
	var base *histEntry
	for i := ht.n - 2; i >= 0; i-- {
		if e := ht.at(i); e.t <= cut {
			base = e
			break
		}
	}
	ht.delta = cur.buckets
	count = cur.count
	if base != nil {
		for i := range ht.delta {
			ht.delta[i] -= base.buckets[i]
		}
		count -= base.count
	}
	return ht.delta[:], count
}

// source is one labeled registry being scraped.
type source struct {
	label  string
	reg    *Registry
	series map[string]*Series
	hists  map[string]*histTrack

	// What a scrape reads and the series it feeds, resolved once per registry
	// generation, each list in name order.
	gen      int
	counters []counterFeed
	gauges   []gaugeFeed
	histos   []histFeed
}

type counterFeed struct {
	c *Counter
	s *Series
}

type gaugeFeed struct {
	g *Gauge
	s *Series
}

type histFeed struct {
	h                    *Histogram
	track                *histTrack
	count, p50, p95, p99 *Series
}

// SamplerConfig tunes a Sampler. The zero value samples every 30 virtual
// seconds.
type SamplerConfig struct {
	// Interval is the virtual-time sampling period (default 30s).
	Interval time.Duration
}

const (
	// sampleWindow is the trailing window for derived quantiles and the
	// default window for rate/delta aggregations and alert rules.
	sampleWindow = 5 * time.Minute
	// seriesCapacity bounds each series' retained points: three hours of
	// history at the default interval.
	seriesCapacity = 360
)

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	return c
}

// Sampler periodically scrapes one or more labeled registries into series.
type Sampler struct {
	env      *sim.Env
	cfg      SamplerConfig
	sources  []*source
	onSample []func(t time.Duration)
	stopped  bool
	started  bool
	passes   int64
	tickFn   func() // s.tick, bound once so that re-arming allocates nothing
}

// NewSampler creates a sampler bound to env. Add sources with AddSource and
// launch the periodic daemon with Start (or drive it manually via SampleNow).
func NewSampler(env *sim.Env, cfg SamplerConfig) *Sampler {
	return &Sampler{env: env, cfg: cfg.withDefaults()}
}

// Config returns the sampler's effective (defaulted) configuration.
func (s *Sampler) Config() SamplerConfig { return s.cfg }

// AddSource registers a labeled registry to scrape. The empty label is the
// system/global source; cluster racks register as "rack0", "rack1", ....
// Sources are scraped in registration order for determinism.
func (s *Sampler) AddSource(label string, reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	s.sources = append(s.sources, &source{
		label:  label,
		reg:    reg,
		series: make(map[string]*Series),
		hists:  make(map[string]*histTrack),
	})
}

// OnSample registers fn to run after every sampling pass (the alert engine's
// evaluation hook). Callbacks run in registration order.
func (s *Sampler) OnSample(fn func(t time.Duration)) {
	if s != nil && fn != nil {
		s.onSample = append(s.onSample, fn)
	}
}

// Start begins sampling every Interval of virtual time on a weak timer: it
// samples while the workload runs but never keeps Env.Run from returning.
// Returns a stop function. Idempotent.
func (s *Sampler) Start() (stop func()) {
	if s == nil || s.env == nil || s.started {
		return func() {}
	}
	s.started = true
	s.tickFn = s.tick
	s.env.AfterWeak(s.cfg.Interval, s.tickFn)
	return func() { s.stopped = true }
}

// tick is one timer firing: a sampling pass, then the next tick.
func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	s.SampleNow()
	s.env.AfterWeak(s.cfg.Interval, s.tickFn)
}

// Passes returns the number of completed sampling passes.
func (s *Sampler) Passes() int64 {
	if s == nil {
		return 0
	}
	return s.passes
}

// SampleNow scrapes every source immediately at the current virtual time and
// runs the OnSample hooks. Tests and the rosfsd SERIES verb call it directly.
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	t := int64(0)
	if s.env != nil {
		t = int64(s.env.Now())
	}
	for _, src := range s.sources {
		s.scrape(src, t)
	}
	s.passes++
	for _, fn := range s.onSample {
		fn(time.Duration(t))
	}
}

func (s *Sampler) scrape(src *source, t int64) {
	if src.gen != src.reg.gen {
		s.resolve(src)
	}
	for _, f := range src.counters {
		f.s.Append(t, float64(f.c.Value()))
	}
	for _, f := range src.gauges {
		f.s.Append(t, float64(f.g.Value()))
	}
	for _, f := range src.histos {
		f.track.push(t, f.h)
		buckets, count := f.track.windowDelta(sampleWindow)
		f.count.Append(t, float64(count))
		for _, q := range [...]struct {
			s *Series
			q float64
		}{{f.p50, 0.50}, {f.p95, 0.95}, {f.p99, 0.99}} {
			v := int64(0)
			if count > 0 {
				v = min(BucketQuantile(buckets, count, q.q), f.h.Max())
			}
			q.s.Append(t, float64(v))
		}
	}
}

// resolve rebuilds src's feed lists from its registry. The lists are keyed on
// the registry's generation, which moves whenever a name is registered.
func (s *Sampler) resolve(src *source) {
	src.gen = src.reg.gen
	src.counters = src.counters[:0]
	for _, name := range sortedKeys(src.reg.counters) {
		src.counters = append(src.counters, counterFeed{src.reg.counters[name], s.seriesFor(src, name, KindCounter)})
	}
	src.gauges = src.gauges[:0]
	for _, name := range sortedKeys(src.reg.gauges) {
		src.gauges = append(src.gauges, gaugeFeed{src.reg.gauges[name], s.seriesFor(src, name, KindGauge)})
	}
	src.histos = src.histos[:0]
	for _, name := range sortedKeys(src.reg.hists) {
		ht, ok := src.hists[name]
		if !ok {
			depth := int(sampleWindow/s.cfg.Interval) + 2
			if depth < 4 {
				depth = 4
			}
			ht = &histTrack{cap: depth, entries: make([]histEntry, depth)}
			src.hists[name] = ht
		}
		src.histos = append(src.histos, histFeed{
			h: src.reg.hists[name], track: ht,
			count: s.seriesFor(src, name+".count", KindDerived),
			p50:   s.seriesFor(src, name+".p50", KindDerived),
			p95:   s.seriesFor(src, name+".p95", KindDerived),
			p99:   s.seriesFor(src, name+".p99", KindDerived),
		})
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Sampler) seriesFor(src *source, name string, kind SeriesKind) *Series {
	if sr, ok := src.series[name]; ok {
		return sr
	}
	sr := newSeries(src.label, name, kind, seriesCapacity)
	src.series[name] = sr
	return sr
}

// Labels returns the source labels in registration order.
func (s *Sampler) Labels() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.sources))
	for i, src := range s.sources {
		out[i] = src.label
	}
	return out
}

// Get returns the series for name under the given source label, or nil.
func (s *Sampler) Get(label, name string) *Series {
	if s == nil {
		return nil
	}
	for _, src := range s.sources {
		if src.label == label {
			return src.series[name]
		}
	}
	return nil
}

// Each calls fn for every series: sources in registration order, names
// sorted — a deterministic full walk for exposition and dumps.
func (s *Sampler) Each(fn func(sr *Series)) {
	if s == nil {
		return
	}
	for _, src := range s.sources {
		for _, name := range sortedKeys(src.series) {
			fn(src.series[name])
		}
	}
}

// Find returns every source's series for name (skipping sources without it),
// in source registration order.
func (s *Sampler) Find(name string) []*Series {
	if s == nil {
		return nil
	}
	var out []*Series
	for _, src := range s.sources {
		if sr, ok := src.series[name]; ok {
			out = append(out, sr)
		}
	}
	return out
}

// SeriesDump is the JSON export form of one series.
type SeriesDump struct {
	Label  string  `json:"label,omitempty"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// Dump exports every series (newest tail points each; tail <= 0 means all),
// deterministically ordered.
func (s *Sampler) Dump(tail int) []SeriesDump {
	var out []SeriesDump
	s.Each(func(sr *Series) {
		out = append(out, SeriesDump{
			Label:  sr.Label,
			Name:   sr.Name,
			Kind:   string(sr.Kind),
			Points: sr.Points(tail),
		})
	})
	return out
}

// DumpJSON renders Dump(tail) as indented deterministic JSON.
func (s *Sampler) DumpJSON(tail int) ([]byte, error) {
	d := s.Dump(tail)
	if d == nil {
		d = []SeriesDump{}
	}
	return json.MarshalIndent(d, "", "  ")
}

// String summarizes the sampler state (for rosctl debugging).
func (s *Sampler) String() string {
	if s == nil {
		return "sampler: disabled"
	}
	total := 0
	s.Each(func(*Series) { total++ })
	return fmt.Sprintf("sampler: every=%s window=%s sources=%d series=%d passes=%d",
		s.cfg.Interval, sampleWindow, len(s.sources), total, s.passes)
}
