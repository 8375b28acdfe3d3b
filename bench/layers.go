package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ros/internal/blockdev"
	"ros/internal/obs"
	"ros/internal/raid"
)

// Per-layer metrics are reported, never gated. Each is named
// <module>.<metric>; README.md says which end-to-end metric each should move
// on which workload.

// phaseRule sends a critical-path phase (a span name) to a per-layer metric.
type phaseRule struct {
	Prefix string
	Metric string
}

// traceClass folds every finished trace whose root has one of Roots. Rules
// are tried in order; Rest takes whatever matches none, so the class's
// metrics always sum to its mean latency exactly.
type traceClass struct {
	Roots []string
	Rules []phaseRule
	Rest  string
}

var traceClasses = []traceClass{
	{
		Roots: []string{"olfs.write", "cluster.write"},
		Rules: []phaseRule{
			{"writepath.", "writepath.admit_ms"},
			{"cluster.", "cluster.route_ms"},
		},
		Rest: "olfs.write_self_ms",
	},
	{
		Roots: []string{"olfs.read", "cluster.read"},
		Rules: []phaseRule{
			{"sched.", "sched.read_wait_ms"},
			{"rack.arm_move", "rack.read_arm_ms"},
			{"rack.", "rack.read_tray_ms"},
			{"optical.spinup", "optical.read_spinup_ms"},
			{"optical.", "optical.read_xfer_ms"},
			{"cluster.", "cluster.read_route_ms"},
		},
		Rest: "olfs.read_self_ms",
	},
	{
		Roots: []string{"olfs.burn"},
		Rules: []phaseRule{
			{"olfs.parity", "image.burn_parity_ms"},
			{"image.", "image.burn_parity_ms"},
			{"sched.", "sched.burn_wait_ms"},
			{"rack.arm_move", "rack.burn_arm_ms"},
			{"rack.", "rack.burn_tray_ms"},
			{"optical.", "optical.burn_xfer_ms"},
		},
		Rest: "olfs.burn_self_ms",
	},
}

func (c *traceClass) metricFor(phase string) string {
	for _, r := range c.Rules {
		if strings.HasPrefix(phase, r.Prefix) {
			return r.Metric
		}
	}
	return c.Rest
}

func (c *traceClass) metrics() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range c.Rules {
		if !seen[r.Metric] {
			seen[r.Metric] = true
			out = append(out, r.Metric)
		}
	}
	return append(out, c.Rest)
}

// classFold is the critical path of one class folded over all its traces.
type classFold struct {
	N      int
	Total  time.Duration            // sum of trace durations
	ByName map[string]time.Duration // metric -> summed phase time
	MetaOp int                      // olfs.op.* spans other than the data ops: index-file operations
}

// foldClass folds Trace.CriticalPath over every finished trace of the class.
// It fails if the phases do not sum to the traces' durations exactly.
func foldClass(c *traceClass, traces []*obs.Trace) (classFold, error) {
	f := classFold{ByName: map[string]time.Duration{}}
	for _, t := range traces {
		match := false
		for _, r := range c.Roots {
			if t.Name == r {
				match = true
			}
		}
		if !match {
			continue
		}
		f.N++
		f.Total += t.Duration()
		var sum time.Duration
		for _, ph := range t.CriticalPath() {
			f.ByName[c.metricFor(ph.Name)] += ph.Dur
			sum += ph.Dur
		}
		if sum != t.Duration() {
			return f, fmt.Errorf("trace %d (%s): critical path sums to %v, trace took %v", t.ID, t.Name, sum, t.Duration())
		}
		for _, sp := range t.Spans() {
			if strings.HasPrefix(sp.Name, "olfs.op.") && sp.Name != "olfs.op.read" && sp.Name != "olfs.op.write" {
				f.MetaOp++
			}
		}
	}
	return f, nil
}

// cpuLayers and allocLayers are the layers whose host shares are reported;
// everything else a profile attributes lands in "other".
var (
	cpuLayers   = []string{"sim", "runtime", "raid", "blockdev", "pagecache", "udf", "mv", "olfs", "optical", "image", "obs", "gc", "bench"}
	allocLayers = []string{"raid", "udf", "pagecache", "blockdev", "mv", "olfs", "optical", "image", "obs", "bench"}
)

// perLayer lists every per-layer metric, in the order they are printed.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better, what string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, What: what})
	}
	for _, c := range traceClasses {
		for _, m := range c.metrics() {
			add(m, "ms", "lower", "virtual critical path: mean ms per "+c.Roots[0]+" trace")
		}
	}
	add("mv.ops_per_write", "count", "lower", "index-file ops per write trace")
	add("mv.ops_per_read", "count", "lower", "index-file ops per read trace")
	add("pagecache.flushed_per_user_byte", "ratio", "lower", "buffer bytes flushed to RAID per user byte written")
	add("raid.dev_bytes_per_user_byte", "ratio", "lower", "bytes read+written on the buffer's member disks per user byte written")
	add("olfs.buffer_hit_ratio", "ratio", "higher", "reads served without a mechanical fetch")
	add("olfs.fetch_tasks_per_read", "ratio", "lower", "mechanical fetches per file read")
	add("olfs.interrupted_burns", "count", "lower", "burns aborted for a read")
	add("sched.evictions_per_fetch", "ratio", "lower", "trays unloaded to make room per fetch")
	add("sched.arm_layers_per_fetch", "ratio", "lower", "arm travel in layers per fetch")
	add("sched.coalesced_per_fetch", "ratio", "higher", "readers that joined a fetch in flight, per fetch")
	add("rack.loads_per_read", "ratio", "lower", "tray loads (fetches and burns) per file read")
	add("rack.arm_busy_frac", "ratio", "lower", "share of virtual time the arms were moving, per rack")
	add("optical.burned_per_user_byte", "ratio", "lower", "logical bytes burned per user byte written (write-all-once)")
	add("optical.read_per_user_byte", "ratio", "lower", "bytes read from disc per user byte read")
	add("writepath.shed_ratio", "ratio", "lower", "writes shed by admission per write offered")
	add("writepath.admit_wait_p99_ms", "ms", "lower", "p99 wait for admission tokens")
	add("writepath.sets_per_group", "ratio", "higher", "image sets per burn group")
	add("writepath.buffer_peak_pct", "%", "lower", "peak admitted bytes in flight over capacity")
	add("cluster.secondary_read_ratio", "ratio", "lower", "reads routed to a non-primary replica")
	add("cluster.failovers", "count", "lower", "mid-op failovers")
	add("cluster.imbalance_pct", "%", "lower", "worst rack's deviation from mean placement load")
	add("sim.virtual_s_per_cpu_s", "ratio", "higher", "virtual seconds simulated per host CPU second")
	add("host.peak_rss_mb", "MB", "lower", "peak resident set of the traced pass process")
	add("host.gc_cpu_pct", "%", "lower", "runtime's estimate of CPU spent in the collector")
	for _, l := range append(append([]string(nil), cpuLayers...), "other") {
		add(l+".cpu_share_pct", "%", "lower", "CPU profile samples whose deepest ros/internal frame is in "+l)
	}
	for _, l := range allocLayers {
		add(l+".alloc_share_pct", "%", "lower", "heap profile bytes allocated under "+l)
	}
	add("obs.trace_overhead_cpu_pct", "%", "lower", "host CPU of the traced pass over the untraced one (includes the profilers)")
	add("obs.trace_overhead_allocs_pct", "%", "lower", "allocations of the traced pass over the untraced one")
	for _, p := range probes {
		add(p.Name+"_ns", "ns", "lower", "probe: host ns per call; explains "+p.Explains)
		add(p.Name+"_allocs", "count", "lower", "probe: allocations per call")
	}
	add("rack.load_top_err_pct", "%", "lower", "model error vs the paper's Table 3, uppermost layer load")
	add("rack.load_bottom_err_pct", "%", "lower", "model error vs Table 3, lowest layer load")
	add("olfs.cold_fetch_err_pct", "%", "lower", "model error vs Table 1, array in roller with free drives (70.553 s)")
	add("optical.burn25_err_pct", "%", "lower", "model error vs Fig 8, 25 GB recording time (675 s)")
	return defs
}

// snapIndex gives name lookup over an obs.Snapshot.
type snapIndex struct {
	c map[string]int64
	g map[string]int64
	h map[string]obs.HistogramSnapshot
}

func indexSnapshot(s obs.Snapshot) snapIndex {
	ix := snapIndex{c: map[string]int64{}, g: map[string]int64{}, h: map[string]obs.HistogramSnapshot{}}
	for _, c := range s.Counters {
		ix.c[c.Name] = c.Value
	}
	for _, g := range s.Gauges {
		ix.g[g.Name] = g.Value
	}
	for _, h := range s.Histograms {
		ix.h[h.Name] = h
	}
	return ix
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the pass's own per-layer metrics: the critical-path
// fold of the program's traces, count ratios from the obs registries over
// the measured window (base is the snapshot taken after set-up), and the
// host shares. Probes, accuracy and the traced-vs-untraced overheads are
// added by the run that started the pass.
func (ps *pass) layerMetrics(base obs.Snapshot, host hostShares) map[string]float64 {
	out := map[string]float64{}

	// Every rack's tracer is the same object in a federation (the cluster
	// starts ops on rack 0's), but collect from all and de-duplicate.
	var traces []*obs.Trace
	seen := map[*obs.Tracer]bool{}
	for _, fs := range ps.fss {
		if tr := fs.Tracer(); tr != nil && !seen[tr] {
			seen[tr] = true
			for _, t := range tr.Traces() {
				if t.Start >= ps.t0 {
					traces = append(traces, t)
				}
			}
		}
	}
	for i := range traceClasses {
		c := &traceClasses[i]
		f, err := foldClass(c, traces)
		if err != nil {
			ps.fail(failError, err.Error())
		}
		var sum time.Duration
		for _, m := range c.metrics() {
			out[m] = ratio(float64(f.ByName[m])/1e6, float64(f.N))
			sum += f.ByName[m]
		}
		if sum != f.Total {
			ps.fail(failError, fmt.Sprintf("%s: per-layer phases sum to %v, traces took %v", c.Roots[0], sum, f.Total))
		}
		switch c.Roots[0] {
		case "olfs.write":
			out["mv.ops_per_write"] = ratio(float64(f.MetaOp), float64(f.N))
		case "olfs.read":
			out["mv.ops_per_read"] = ratio(float64(f.MetaOp), float64(f.N))
		}
	}

	end := ps.sys.Stats().Obs
	b, e := indexSnapshot(base), indexSnapshot(end)
	cnt := func(name string) float64 { return float64(e.c[name] - b.c[name]) }
	hsum := func(name string) float64 { return float64(e.h[name].Sum - b.h[name].Sum) }
	userW, userR := cnt("olfs.bytes_written"), cnt("olfs.bytes_read")
	fetches := cnt("olfs.fetch_tasks")
	out["pagecache.flushed_per_user_byte"] = ratio(cnt("buffer.bytes_flushed"), userW)
	out["olfs.buffer_hit_ratio"] = ratio(cnt("olfs.cache_hits"), cnt("olfs.cache_hits")+cnt("olfs.cache_misses"))
	out["olfs.fetch_tasks_per_read"] = ratio(fetches, cnt("olfs.files_read"))
	out["olfs.interrupted_burns"] = cnt("olfs.interrupted_burns")
	out["sched.evictions_per_fetch"] = ratio(cnt("sched.evictions"), fetches)
	out["sched.arm_layers_per_fetch"] = ratio(cnt("sched.arm_travel_layers"), fetches)
	out["sched.coalesced_per_fetch"] = ratio(cnt("sched.coalesced_fetches"), fetches)
	out["rack.loads_per_read"] = ratio(cnt("rack.loads"), cnt("olfs.files_read"))
	measured := float64(ps.virtualEnd - ps.t0)
	out["rack.arm_busy_frac"] = ratio(hsum("rack.arm.move.latency"), measured*float64(len(ps.fss)))
	out["optical.burned_per_user_byte"] = ratio(cnt("optical.bytes_burned"), userW)
	out["optical.read_per_user_byte"] = ratio(cnt("optical.bytes_read"), userR)
	out["writepath.shed_ratio"] = ratio(cnt("writepath.shed_writes"), cnt("writepath.shed_writes")+cnt("writepath.admitted"))
	out["writepath.admit_wait_p99_ms"] = float64(e.h["writepath.admit_wait.interactive"].P99) / 1e6
	out["writepath.sets_per_group"] = ratio(cnt("writepath.burn_sets"), cnt("writepath.burn_groups"))
	out["writepath.buffer_peak_pct"] = ps.peakBufPct
	out["cluster.secondary_read_ratio"] = ratio(cnt("cluster.secondary_reads"), cnt("cluster.reads"))
	out["cluster.failovers"] = cnt("cluster.failovers")
	out["cluster.imbalance_pct"] = float64(e.g["cluster.imbalance_pct"])

	// Device traffic under the buffer: reachable through the exported
	// pagecache backend. Set-up traffic is included (cold-read only).
	var dev float64
	for _, arr := range ps.bufferArrays() {
		for _, d := range arr.Devices() {
			if disk, ok := d.(*blockdev.Disk); ok {
				dev += float64(disk.BytesRead + disk.BytesWritten)
			}
		}
	}
	out["raid.dev_bytes_per_user_byte"] = ratio(dev, float64(e.c["olfs.bytes_written"]))

	out["sim.virtual_s_per_cpu_s"] = ratio(measured/1e9, ps.cpu.Seconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["host.gc_cpu_pct"] = ms.GCCPUFraction * 100
	out["host.peak_rss_mb"] = peakRSSMB()
	other := 100.0
	for _, l := range cpuLayers {
		out[l+".cpu_share_pct"] = host.CPU[l]
		other -= host.CPU[l]
	}
	if len(host.CPU) == 0 || other < 0 {
		other = 0
	}
	out["other.cpu_share_pct"] = other
	for _, l := range allocLayers {
		out[l+".alloc_share_pct"] = host.Alloc[l]
	}
	return out
}

// bufferArrays returns the RAID array under each rack's write buffer.
func (ps *pass) bufferArrays() []*raid.Array {
	var out []*raid.Array
	add := func(b any) {
		if a, ok := b.(*raid.Array); ok {
			out = append(out, a)
		}
	}
	if ps.sys.Cluster != nil {
		for _, r := range ps.sys.Cluster.Racks() {
			add(r.Buffer.Backend())
		}
	} else {
		add(ps.sys.Buffer.Backend())
	}
	return out
}

// writeTrace writes the traced pass's harness spans and per-layer table.
func (ps *pass) writeTrace(dir string, rep *passReport) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Layers   map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{ps.w.Name, rep.Seed, rep.Layers, ps.rec.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+ps.w.Name+".json"), b, 0o644)
}

// tracedResult is one traced run of one workload.
type tracedResult struct {
	Correct   bool
	Why       string
	Attempted int
	Failed    int
	Layers    map[string]float64
}

// tracedRun runs the workload once untraced and once traced with the same
// inputs, requires their virtual results to agree, and completes the
// per-layer metrics with the overheads, the probes and the model accuracy.
func tracedRun(w *workload, seed int64, outDir string) (*tracedResult, error) {
	plain, err := spawnPass(w, seed, false, "", "")
	if err != nil {
		return nil, err
	}
	tr, err := spawnPass(w, seed, true, "", outDir)
	if err != nil {
		return nil, err
	}
	res := &tracedResult{Correct: true, Attempted: tr.Attempted, Failed: tr.Failed, Layers: tr.Layers}
	switch {
	case tr.Fingerprint != plain.Fingerprint:
		res.Correct = false
		res.Why = fmt.Sprintf("traced pass fingerprint %s differs from untraced %s: tracing moved virtual time", tr.Fingerprint, plain.Fingerprint)
	case tr.Fails[failWrong] > 0:
		res.Correct = false
		res.Why = fmt.Sprintf("%d reads returned wrong bytes", tr.Fails[failWrong])
	}
	res.Layers["obs.trace_overhead_cpu_pct"] = 100 * (ratio(float64(tr.CPU), float64(plain.CPU)) - 1)
	res.Layers["obs.trace_overhead_allocs_pct"] = 100 * (ratio(float64(tr.Mallocs), float64(plain.Mallocs)) - 1)
	for k, v := range probeMetrics(runProbes()) {
		res.Layers[k] = v
	}
	acc, err := modelAccuracy()
	if err != nil {
		return nil, err
	}
	for k, v := range acc {
		res.Layers[k] = v
	}
	return res, nil
}
