package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// printRun prints one run's end-to-end metrics by name, with unit, clock and
// the sample counts behind the timings.
func printRun(w io.Writer, res *runResult) {
	f := res.First
	fmt.Fprintf(w, "\n== %s  seed=%d  passes=%d  ops=%d  failed=%d %v  sheds(retried)=%d  fingerprint=%s\n",
		res.Workload, res.Seed, res.Passes, f.Attempted, f.Failed, f.Fails, f.Sheds, f.Fingerprint)
	fmt.Fprintf(w, "   samples: write_ack n=%d  read n=%d  burn_lag n=%d  virtual span %.1f h  measured pass %.1f s wall\n",
		f.WriteAckMS.N, f.ReadMS.N, f.BurnLagS.N, f.VirtualEndS/3600, f.MeasuredS)
	fmt.Fprintf(w, "   ungated tails (ten samples beyond): read p99 %.3f ms at q=%.4f  burn_lag p99 %.1f s at q=%.4f\n",
		f.ReadMS.P99, f.ReadMS.Q99, f.BurnLagS.P99, f.BurnLagS.Q99)
	for _, n := range f.FailNotes {
		fmt.Fprintf(w, "   fail: %s\n", n)
	}
	if !res.Correct {
		return
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-20s %14.4f %-6s %-9s %s is better, bound %.3f\n",
			d.Name, res.Metrics[d.Name], d.Unit, d.Clock, d.Better, d.Bound)
	}
}

// printLayers prints a traced run's per-layer table.
func printLayers(w io.Writer, wl *workload, layers map[string]float64) {
	fmt.Fprintf(w, "\n-- %s per-layer (traced pass)\n", wl.Name)
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-34s %16.4f %-6s %s\n", d.Name, layers[d.Name], d.Unit, d.What)
	}
}

// runSeconds is the -seconds the driver passes: three passes.
const runSeconds = 15

// manifestJSON is BENCHMARK.json as this program defines it, so the file at
// the repository root cannot drift from the code: a unit test compares them.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatalf(1, "%v", err)
	}
	return append(b, '\n')
}
