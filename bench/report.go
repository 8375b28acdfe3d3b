package main

import (
	"fmt"
	"time"
)

// metricDef describes one reported metric. Clock says what the number is
// made of: "virtual" and "count" metrics repeat exactly for a seed by
// design; "host" metrics are this machine's and carry its noise.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Clock  string
	What   string
}

// endToEnd are the metrics a user of the rack (virtual clock) or of the
// simulator (host clock) would see. Every workload reports all of them.
// Bounds are the share of the parent's median by which a metric may worsen;
// each is about three times the widest seed-to-seed spread (quartile
// distance over median) any workload showed when the suite was sized, and at
// most 0.25 (README, "Bounds"). The tails are p99 for write-ack, p95 for
// reads and p90 for burn lag: the highest percentiles whose spread stayed
// under a quarter on every workload (README, "Why not p99 everywhere").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host CPU", "input generation, ros.New and pre-population: median over repeats and passes"},
	{"write_ack_p50_ms", "ms", "lower", 0.02, "virtual", "due time until WriteFile returns nil; a shed write is retried and keeps its clock running"},
	{"write_ack_p99_ms", "ms", "lower", 0.05, "virtual", "same, 99th percentile"},
	{"read_p50_ms", "ms", "lower", 0.02, "virtual", "due time until verified bytes are returned, all tiers mixed as the workload dictates"},
	{"read_p95_ms", "ms", "lower", 0.20, "virtual", "same, 95th percentile"},
	{"burn_lag_p50_s", "s", "lower", 0.25, "virtual", "ack until the file's first copy is locatable on disc"},
	{"burn_lag_p90_s", "s", "lower", 0.25, "virtual", "same, 90th percentile"},
	{"burn_mb_per_vh", "MB/vh", "higher", 0.05, "virtual", "user MB landed on disc per virtual hour, first ack to last landing"},
	{"host_cpu_us_per_op", "us", "lower", 0.25, "host CPU", "getrusage user+sys per op, per-segment minimum over passes, set-up excluded"},
	{"host_allocs_per_op", "count", "lower", 0.06, "count", "runtime.MemStats.Mallocs delta per op, median over passes"},
	{"host_kb_per_op", "KB", "lower", 0.08, "count", "runtime.MemStats.TotalAlloc delta per op, median over passes"},
}

// timing is one latency class's summary.
type timing struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Q99 float64 `json:"p99_quantile"` // the quantile actually reported as p99
}

func summarize(d []time.Duration, unit time.Duration) timing {
	s := sortDurations(d)
	p50, _ := percentile(s, 0.50)
	p90, _ := percentile(s, 0.90)
	p95, _ := percentile(s, 0.95)
	p99, q := percentile(s, 0.99)
	return timing{
		N:   len(s),
		P50: float64(p50) / float64(unit),
		P90: float64(p90) / float64(unit),
		P95: float64(p95) / float64(unit),
		P99: float64(p99) / float64(unit),
		Q99: q,
	}
}

// passReport is what a pass process hands back to the run that started it.
type passReport struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Traced      bool               `json:"traced"`
	Fingerprint string             `json:"fingerprint"`
	SetupS      float64            `json:"setup_s"`
	MeasuredS   float64            `json:"measured_wall_s"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Fails       map[string]int     `json:"fails,omitempty"`
	FailNotes   []string           `json:"fail_notes,omitempty"`
	Sheds       int                `json:"sheds"`
	WriteAckMS  timing             `json:"write_ack_ms"`
	ReadMS      timing             `json:"read_ms"`
	BurnLagS    timing             `json:"burn_lag_s"`
	BurnMBPerVH float64            `json:"burn_mb_per_vh"`
	VirtualEndS float64            `json:"virtual_end_s"`
	SegCPU      []time.Duration    `json:"seg_cpu_ns"`
	CPU         time.Duration      `json:"cpu_ns"`
	Mallocs     uint64             `json:"mallocs"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

func (ps *pass) report(seed int64) *passReport {
	r := &passReport{
		Workload:    ps.w.Name,
		Seed:        seed,
		Traced:      ps.cfg.Traced,
		Fingerprint: fmt.Sprintf("%016x", ps.fingerprint()),
		SetupS:      ps.setup.Seconds(),
		MeasuredS:   ps.measWall.Seconds(),
		Attempted:   ps.attempted,
		Failed:      ps.failed(),
		Fails:       ps.fails,
		FailNotes:   ps.failNotes,
		Sheds:       ps.sheds,
		WriteAckMS:  summarize(ps.writeLat, time.Millisecond),
		ReadMS:      summarize(ps.readLat, time.Millisecond),
		BurnLagS:    summarize(ps.burnLag, time.Second),
		VirtualEndS: ps.virtualEnd.Seconds(),
		SegCPU:      ps.segCPU,
		CPU:         ps.cpu,
		Mallocs:     ps.mallocs,
		AllocBytes:  ps.allocBytes,
		PeakRSSMB:   peakRSSMB(),
	}
	if span := ps.lastLanded - ps.firstAck; span > 0 {
		r.BurnMBPerVH = float64(ps.landed) / 1e6 / span.Hours()
	}
	return r
}

// runResult is one run of one workload: several identical passes combined.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Passes   int                `json:"passes"`
	Correct  bool               `json:"correct"`
	Why      string             `json:"why_incorrect,omitempty"`
	First    *passReport        `json:"first_pass"`
	Metrics  map[string]float64 `json:"metrics"`
}

// combine folds the passes of one run into the end-to-end metrics. Every
// virtual-clock and count result must be bit-identical across passes; host
// CPU is the per-segment minimum, allocation counts and set-up the median.
func combine(reps []*passReport) *runResult {
	first := reps[0]
	res := &runResult{
		Workload: first.Workload, Seed: first.Seed, Passes: len(reps),
		Correct: true, First: first,
	}
	var segs [][]time.Duration
	var setups, mallocs, kbs []float64
	for i, r := range reps {
		if r.Fingerprint != first.Fingerprint || len(r.SegCPU) != len(first.SegCPU) {
			res.Correct = false
			res.Why = fmt.Sprintf("pass %d is not a replay of pass 0 (fingerprint %s vs %s): the system is not deterministic",
				i, r.Fingerprint, first.Fingerprint)
			return res
		}
		segs = append(segs, r.SegCPU)
		setups = append(setups, r.SetupS)
		mallocs = append(mallocs, float64(r.Mallocs))
		kbs = append(kbs, float64(r.AllocBytes)/1024)
	}
	if n := first.Fails[failWrong]; n > 0 {
		res.Correct = false
		res.Why = fmt.Sprintf("%d reads returned wrong bytes", n)
	}
	ops := float64(first.Attempted)
	res.Metrics = map[string]float64{
		"setup_s":            median(setups),
		"write_ack_p50_ms":   first.WriteAckMS.P50,
		"write_ack_p99_ms":   first.WriteAckMS.P99,
		"read_p50_ms":        first.ReadMS.P50,
		"read_p95_ms":        first.ReadMS.P95,
		"burn_lag_p50_s":     first.BurnLagS.P50,
		"burn_lag_p90_s":     first.BurnLagS.P90,
		"burn_mb_per_vh":     first.BurnMBPerVH,
		"host_cpu_us_per_op": float64(segmentMin(segs)) / 1e3 / ops,
		"host_allocs_per_op": median(mallocs) / ops,
		"host_kb_per_op":     median(kbs) / ops,
	}
	return res
}
