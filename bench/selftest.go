package main

import (
	"fmt"
	"math"

	"ros"
)

// A perturbation changes one thing through public Options only.
type perturbation struct {
	Name  string
	What  string
	Apply func(*ros.Options)
}

var perturbations = []perturbation{
	{"qos-scan", `SchedPolicy: "qos-scan"`, func(o *ros.Options) { o.SchedPolicy = "qos-scan" }},
	{"single-image", "Write.Batch.SingleImage", func(o *ros.Options) { o.Write.Batch.SingleImage = true }},
	{"trace-on", "tracer at full capture", func(o *ros.Options) {
		o.TraceCapacity = traceJournal
		o.TraceSampleEvery = 1
	}},
	{"replicas-1", "Replicas: 1", func(o *ros.Options) { o.Replicas = 1 }},
}

func findPerturbation(name string) *perturbation {
	for i := range perturbations {
		if perturbations[i].Name == name {
			return &perturbations[i]
		}
	}
	return nil
}

// expectation is one prediction of a selftest case.
type expectation struct {
	Workload string
	Metric   string
	// Move is "up", "down", "any" (beyond the bound in either direction) or
	// "flat" (within the bound: the bypass prediction).
	Move string
	// SameVirtual additionally requires every virtual and count result to be
	// bit-identical to the baseline (a host-only change).
	SameVirtual bool
}

type selftestCase struct {
	Perturb string
	Expect  []expectation
}

// The cases: each perturbs one thing and predicts which end-to-end metric
// moves on the workload that exercises it, and that the bypass workload does
// not notice.
var selftestCases = []selftestCase{
	{"qos-scan", []expectation{
		{Workload: "cold-read", Metric: "read_p95_ms", Move: "any"},
		{Workload: "fleet-mix", Metric: "read_p95_ms", Move: "any"},
		{Workload: "ingest-steady", Metric: "read_p95_ms", Move: "flat"},
		{Workload: "ingest-steady", Metric: "write_ack_p99_ms", Move: "flat"},
	}},
	{"single-image", []expectation{
		{Workload: "ingest-overload", Metric: "burn_mb_per_vh", Move: "down"},
		{Workload: "ingest-steady", Metric: "read_p50_ms", Move: "flat"},
		{Workload: "ingest-steady", Metric: "read_p95_ms", Move: "flat"},
	}},
	{"trace-on", []expectation{
		// cold-read, not fleet-mix: a cold read opens a dozen spans, and
		// tracing adds 22% to its allocations; on fleet-mix it adds 3.9%,
		// inside the bound.
		{Workload: "cold-read", Metric: "host_allocs_per_op", Move: "up", SameVirtual: true},
	}},
	{"replicas-1", []expectation{
		{Workload: "fleet-mix", Metric: "write_ack_p50_ms", Move: "down"},
	}},
}

func boundOf(metric string) float64 {
	for _, d := range endToEnd {
		if d.Name == metric {
			return d.Bound
		}
	}
	return 0
}

// runSelftest proves the suite measures: every case's predictions are
// checked and printed; a case that crashes the program is reported as
// crashed, not skipped. Exit status 1 if any prediction failed.
func runSelftest(seed int64, passes int) int {
	base := map[string]*runResult{}
	baseline := func(w string) (*runResult, error) {
		if r, ok := base[w]; ok {
			return r, nil
		}
		r, err := runOnce(mustWorkload(w), seed, passes, "")
		if err == nil {
			base[w] = r
		}
		return r, err
	}
	failures := 0
	for _, c := range selftestCases {
		p := findPerturbation(c.Perturb)
		fmt.Printf("\ncase %s (%s)\n", p.Name, p.What)
		perturbed := map[string]*runResult{}
		for _, e := range c.Expect {
			b, err := baseline(e.Workload)
			if err != nil {
				fmt.Printf("  %-16s baseline CRASHED: %v\n", e.Workload, err)
				failures++
				continue
			}
			r, ok := perturbed[e.Workload]
			if !ok {
				r, err = runOnce(mustWorkload(e.Workload), seed, passes, p.Name)
				if err != nil {
					fmt.Printf("  %-16s CRASHED under %s: %v\n", e.Workload, p.Name, err)
					failures++
					continue
				}
				perturbed[e.Workload] = r
			}
			if !b.Correct || !r.Correct {
				fmt.Printf("  %-16s INCORRECT run: %s %s\n", e.Workload, b.Why, r.Why)
				failures++
				continue
			}
			bv, rv := b.Metrics[e.Metric], r.Metrics[e.Metric]
			rel := ratio(rv-bv, bv)
			bound := boundOf(e.Metric)
			ok = false
			switch e.Move {
			case "up":
				ok = rel > bound
			case "down":
				ok = rel < -bound
			case "any":
				ok = math.Abs(rel) > bound
			case "flat":
				ok = math.Abs(rel) <= bound
			}
			note := ""
			if e.SameVirtual {
				if b.First.Fingerprint == r.First.Fingerprint {
					note = ", virtual results identical"
				} else {
					ok = false
					note = ", VIRTUAL RESULTS DIFFER"
				}
			}
			verdict := "ok"
			if !ok {
				verdict = "PREDICTION FAILED"
				failures++
			}
			fmt.Printf("  %-16s %-20s %12.4f -> %12.4f  (%+.2f%%, bound %.1f%%, predicted %s%s): %s   [failed ops %d -> %d]\n",
				e.Workload, e.Metric, bv, rv, 100*rel, 100*bound, e.Move, note, verdict, b.First.Failed, r.First.Failed)
		}
	}
	if failures > 0 {
		fmt.Printf("\nselftest: %d predictions failed or crashed\n", failures)
		return 1
	}
	fmt.Println("\nselftest: every prediction held")
	return 0
}
