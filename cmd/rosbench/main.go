// Command rosbench regenerates the paper's evaluation: every table and
// figure (§5), the in-text experiments, and the design-choice ablations,
// printing paper-vs-measured rows for each.
//
// Usage:
//
//	rosbench -list
//	rosbench -exp all            # tables 1-3, figures 6-10, extras
//	rosbench -exp table1
//	rosbench -exp ablations      # the design-choice ablation suite
//	rosbench -exp fig9 -exp fig10
//	rosbench -exp table1 -json out.json   # machine-readable results
//
// Chaos mode runs a deterministic fault-injection campaign against a full
// system and checks the end-to-end invariants (acked data readable, parity
// clean, catalog consistent, no leaks):
//
//	rosbench -chaos -seed 7
//	rosbench -chaos -seed 7 -faults 'optical.read:p=0.05;media.lse:once'
//	rosbench -chaos -seed 11 -racks 3          # federation campaign
//
// Cluster mode runs the multi-rack federation scaling experiment (1/2/4
// racks, degraded-rack and offline-primary read p95):
//
//	rosbench -cluster
//	rosbench -cluster -json cluster.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ros"
	"ros/internal/chaos"
	"ros/internal/experiments"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

var registry = map[string]func() (experiments.Result, error){
	"table1":             experiments.Table1,
	"table2":             experiments.Table2,
	"table3":             experiments.Table3,
	"fig6":               experiments.Fig6,
	"fig7":               experiments.Fig7,
	"fig8":               experiments.Fig8,
	"fig9":               experiments.Fig9,
	"fig10":              experiments.Fig10,
	"mvsize":             experiments.MVSize,
	"mvrecover":          experiments.MVRecovery,
	"tco":                experiments.TCO,
	"power":              experiments.Power,
	"reliability":        experiments.Reliability,
	"ablate-buffer":      experiments.AblationTieredBuffer,
	"ablate-fusechunk":   experiments.AblationFuseChunk,
	"ablate-readpolicy":  experiments.AblationReadPolicy,
	"ablate-forepart":    experiments.AblationForepart,
	"ablate-readcache":   experiments.AblationReadCache,
	"ablate-uniquepath":  experiments.AblationUniquePath,
	"ablate-overlap":     experiments.AblationOverlapScheduling,
	"ablate-streams":     experiments.AblationStreamIsolation,
	"ablate-directwrite": experiments.AblationDirectWrite,
	"ablate-sched":       experiments.AblationScheduler,
	"ablate-pread":       experiments.AblationParallelRead,
	"sustained":          experiments.SustainedIngest,
	"cluster-failover":   experiments.ClusterFailover,
	"telemetry":          chaos.TelemetryExperiment,
	"ingest":             experiments.IngestBench,
	"ingest-smoke":       experiments.IngestSmoke,
}

func main() {
	var exps multiFlag
	flag.Var(&exps, "exp", "experiment id, 'all' (paper suite) or 'ablations' (repeatable)")
	list := flag.Bool("list", false, "list experiment ids")
	plot := flag.Bool("plot", true, "render figure series as ASCII charts")
	jsonOut := flag.String("json", "", "also write results as JSON to this file")
	chaosMode := flag.Bool("chaos", false, "run a deterministic chaos campaign instead of experiments")
	seed := flag.Int64("seed", 1, "chaos: campaign seed (drives workload and fault schedule)")
	faults := flag.String("faults", "", "chaos: fault spec (default mix if empty, 'none' to disable)")
	workers := flag.Int("workers", 0, "chaos: concurrent workload processes (default 3)")
	ops := flag.Int("ops", 0, "chaos: operations per worker (default 40)")
	clusterMode := flag.Bool("cluster", false, "shorthand for -exp cluster-failover (multi-rack scaling run)")
	clusterRacks := flag.Int("racks", 1, "chaos: federate this many racks")
	ingestMode := flag.Bool("ingest", false, "shorthand for -exp ingest (closed-loop write-path benchmark)")
	overload := flag.Bool("overload", false, "chaos: add an overload phase (closed-loop ingest vs admission control)")
	flag.Parse()
	if *clusterMode {
		exps = append(exps, "cluster-failover")
	}
	if *ingestMode {
		exps = append(exps, "ingest")
	}

	if *chaosMode {
		rep, err := chaos.Run(chaos.Config{
			Seed: *seed, Faults: *faults, Workers: *workers, Ops: *ops,
			Opts: ros.Options{Racks: *clusterRacks}, Overload: *overload,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		if *jsonOut != "" {
			// The full report embeds the alert incident log, per-rule
			// detection/recovery latencies and the final series tails.
			data, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos json:", err)
				os.Exit(1)
			}
		}
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}

	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println("experiments:")
		for _, id := range ids {
			fmt.Println("  " + id)
		}
		fmt.Println("  all        (tables + figures + extras)")
		fmt.Println("  ablations  (design-choice ablation suite)")
		return
	}
	if len(exps) == 0 {
		exps = multiFlag{"all"}
	}

	failed := false
	var collected []experiments.Result
	for _, id := range exps {
		switch id {
		case "all":
			results, err := experiments.All()
			for _, r := range results {
				fmt.Println(r)
				if *plot {
					fmt.Print(r.RenderPlots())
				}
			}
			collected = append(collected, results...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				failed = true
			}
		case "ablations":
			results, err := experiments.Ablations()
			for _, r := range results {
				fmt.Println(r)
			}
			collected = append(collected, results...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				failed = true
			}
		default:
			fn, ok := registry[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				failed = true
				continue
			}
			start := time.Now()
			r, err := fn()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
				failed = true
				continue
			}
			fmt.Println(r)
			if *plot {
				fmt.Print(r.RenderPlots())
			}
			collected = append(collected, r)
			fmt.Printf("(host time: %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, collected); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON serializes completed experiment results (metrics with per-row
// deviation, figure series, notes) for downstream tooling.
func writeJSON(path string, results []experiments.Result) error {
	type metricJSON struct {
		Name      string  `json:"name"`
		Paper     float64 `json:"paper"`
		Measured  float64 `json:"measured"`
		Deviation float64 `json:"deviation"`
		Unit      string  `json:"unit,omitempty"`
	}
	type resultJSON struct {
		ID      string                         `json:"id"`
		Title   string                         `json:"title"`
		Metrics []metricJSON                   `json:"metrics,omitempty"`
		Series  map[string][]experiments.Point `json:"series,omitempty"`
		Notes   string                         `json:"notes,omitempty"`
	}
	out := make([]resultJSON, 0, len(results))
	for _, r := range results {
		rj := resultJSON{ID: r.ID, Title: r.Title, Series: r.Series, Notes: r.Notes}
		for _, m := range r.Metrics {
			rj.Metrics = append(rj.Metrics, metricJSON{
				Name: m.Name, Paper: m.Paper, Measured: m.Measured,
				Deviation: m.Deviation(), Unit: m.Unit,
			})
		}
		out = append(out, rj)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
