// Command bench is the repository's standing benchmark: four seeded
// workloads driven through the public ros API, measured on both clocks
// (virtual time the rack's user feels, host time the simulator costs), with
// a separate traced pass that attributes the result to layers. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// A set-up cheaper than cheapSetup is repeated setupRepeats times.
const (
	cheapSetup   = 250 * time.Millisecond
	setupRepeats = 5
)

// passSeconds is the host time one pass is sized to on the sandbox the
// suite was frozen on; -seconds buys seconds/passSeconds passes.
const passSeconds = 5

func main() {
	var (
		wlName     = flag.String("workload", "", "workload to run (default: all four)")
		seed       = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds    = flag.Int("seconds", 15, "measuring time: buys seconds/5 identical passes, at least 2")
		trace      = flag.Int("trace", 0, "1: report the per-layer metrics from a traced pass instead")
		traced     = flag.Bool("traced", false, "same as -trace 1")
		outDir     = flag.String("out", "bench/out", "where a traced run writes its spans and tables")
		probesOnly = flag.Bool("probes", false, "run the layer probes alone and print them")
		selftest   = flag.Bool("selftest", false, "perturb one public option per case and check the predicted metric moves")
		aa         = flag.Int("aa", 0, "run N runs per set, two sets of the same code, and compare them against the bounds")
		manifest   = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
		isPass     = flag.Bool("pass", false, "internal: run one pass in this process and print its report")
		perturb    = flag.String("perturb", "", "internal: selftest perturbation applied to a pass")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}
	if *traced {
		*trace = 1
	}
	passes := *seconds / passSeconds
	if passes < 2 {
		passes = 2
	}

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *isPass:
		w := mustWorkload(*wlName)
		runPassProcess(w, *seed, *trace == 1, *perturb, *outDir)
	case *probesOnly:
		printProbes(os.Stdout, runProbes())
	case *selftest:
		os.Exit(runSelftest(*seed, passes))
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, passes))
	case *wlName != "":
		w := mustWorkload(*wlName)
		if *trace == 1 {
			os.Exit(driverTraced(w, *seed, *outDir))
		}
		os.Exit(driverRun(w, *seed, passes))
	default:
		os.Exit(runAll(*seed, passes, *trace == 1, *outDir))
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func mustWorkload(name string) *workload {
	w := findWorkload(name)
	if w == nil {
		fatalf(2, "unknown workload %q", name)
	}
	return w
}

// peakRSSMB is this process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runPassProcess is the body of a pass process: one pass on a fresh system
// in a fresh address space, so that no pass inherits another's heap, parked
// daemon goroutines or GC state. The report goes to stdout as one JSON line.
func runPassProcess(w *workload, seed int64, traced bool, perturb, outDir string) {
	cfg := passConfig{Traced: traced}
	if perturb != "" {
		p := findPerturbation(perturb)
		if p == nil {
			fatalf(2, "unknown perturbation %q", perturb)
		}
		cfg.Perturb = p.Apply
	}
	var prof *profiler
	if traced {
		prof = startProfiler()
	}
	ps, err := newPass(w, seed, cfg)
	if err != nil {
		fatalf(1, "%v", err)
	}
	// A cheap set-up is too short to time once: repeat it on throwaway
	// systems and keep the median.
	if setups := []float64{ps.setup.Seconds()}; setups[0] < cheapSetup.Seconds() {
		for i := 1; i < setupRepeats; i++ {
			extra, err := newPass(w, seed, cfg)
			if err != nil {
				fatalf(1, "%v", err)
			}
			setups = append(setups, extra.setup.Seconds())
		}
		ps.setup = time.Duration(median(setups) * float64(time.Second))
	}
	base := ps.sys.Stats().Obs
	ps.run()
	var layers map[string]float64
	if traced {
		layers = ps.layerMetrics(base, prof.stop())
	}
	rep := ps.report(seed)
	if traced {
		rep.Layers = layers
		if err := ps.writeTrace(outDir, rep); err != nil {
			fatalf(1, "%v", err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fatalf(1, "%v", err)
	}
}

// spawnPass runs one pass in a child process and waits for it.
func spawnPass(w *workload, seed int64, traced bool, perturb, outDir string) (*passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-pass", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-out", outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	if perturb != "" {
		args = append(args, "-perturb", perturb)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass of %s (seed %d) crashed: %w", w.Name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep passReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("pass of %s: unreadable report: %w", w.Name, err)
	}
	return &rep, nil
}

// runOnce is one run: n identical untraced passes, combined.
func runOnce(w *workload, seed int64, n int, perturb string) (*runResult, error) {
	var reps []*passReport
	for i := 0; i < n; i++ {
		r, err := spawnPass(w, seed, false, perturb, "")
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return combine(reps), nil
}

// driverLine is the last line of standard output the benchmark contract asks
// for.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emitDriverLine(correct bool, attempted, failed int, defs []metricDef, vals map[string]float64) {
	line := driverLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: vals[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Println(string(b))
}

// driverRun measures one workload's end-to-end metrics with tracing off.
func driverRun(w *workload, seed int64, passes int) int {
	res, err := runOnce(w, seed, passes, "")
	if err != nil {
		fatalf(1, "%v", err)
	}
	printRun(os.Stderr, res)
	emitDriverLine(res.Correct, res.First.Attempted, res.First.Failed, endToEnd, res.Metrics)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", res.Why)
		return 1
	}
	return 0
}

// driverTraced produces one workload's per-layer metrics: an untraced pass
// for reference, then a traced pass of the same inputs whose virtual results
// must equal it (tracing costs no virtual time), plus probes and the model's
// error against the paper's reference values.
func driverTraced(w *workload, seed int64, outDir string) int {
	tr, err := tracedRun(w, seed, outDir)
	if err != nil {
		fatalf(1, "%v", err)
	}
	printLayers(os.Stderr, w, tr.Layers)
	emitDriverLine(tr.Correct, tr.Attempted, tr.Failed, perLayer, tr.Layers)
	if !tr.Correct {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", tr.Why)
		return 1
	}
	return 0
}

// runAll is the one command a person runs: every end-to-end metric of every
// workload by name, with unit and sample counts, and with -traced the
// per-layer tables too. The summary claims nothing: it compares against no
// parent.
func runAll(seed int64, passes int, traced bool, outDir string) int {
	type entry struct {
		Workload string             `json:"workload"`
		Why      string             `json:"why"`
		Correct  bool               `json:"correct"`
		Samples  map[string]int     `json:"samples"`
		Metrics  map[string]float64 `json:"metrics"`
		Layers   map[string]float64 `json:"per_layer,omitempty"`
	}
	code := 0
	var all []entry
	for _, w := range workloads {
		res, err := runOnce(w, seed, passes, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		printRun(os.Stdout, res)
		e := entry{
			Workload: w.Name, Why: w.Why, Correct: res.Correct, Metrics: res.Metrics,
			Samples: map[string]int{
				"attempted": res.First.Attempted, "failed": res.First.Failed,
				"write_ack": res.First.WriteAckMS.N, "read": res.First.ReadMS.N, "burn_lag": res.First.BurnLagS.N,
			},
		}
		if !res.Correct {
			fmt.Println("INCORRECT:", res.Why)
			code = 1
		}
		if traced {
			tr, err := tracedRun(w, seed, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			} else {
				printLayers(os.Stdout, w, tr.Layers)
				e.Layers = tr.Layers
				if !tr.Correct {
					fmt.Println("INCORRECT:", tr.Why)
					code = 1
				}
			}
		}
		all = append(all, e)
	}
	// A struct, not a map, so that the summary ends with the claim.
	summary := struct {
		Suite      string  `json:"suite"`
		Seed       int64   `json:"seed"`
		Passes     int     `json:"passes"`
		Go         string  `json:"go"`
		GoMaxProcs int     `json:"gomaxprocs"`
		Workloads  []entry `json:"workloads"`
		Claim      *string `json:"claim"`
	}{"ros-bench", seed, passes, runtime.Version(), runtime.GOMAXPROCS(0), all, nil}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Println(string(b))
	return code
}
