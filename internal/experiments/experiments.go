// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the in-text experiments, each returning paper-vs-
// measured metrics. cmd/rosbench prints them; bench_test.go wraps them as
// testing.B benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ros/internal/cluster"
	"ros/internal/sim"
)

// Metric is one paper-vs-measured comparison.
type Metric struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
}

// Deviation returns the relative deviation from the paper's value.
func (m Metric) Deviation() float64 {
	if m.Paper == 0 {
		return 0
	}
	return (m.Measured - m.Paper) / m.Paper
}

// Point is one sample of a figure's series.
type Point struct {
	X, Y float64
}

// Result is a regenerated experiment.
type Result struct {
	ID      string
	Title   string
	Metrics []Metric
	Series  map[string][]Point
	Notes   string
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Metrics) > 0 {
		fmt.Fprintf(&b, "%-44s %14s %14s %8s %s\n", "metric", "paper", "measured", "dev", "unit")
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "%-44s %14.3f %14.3f %7.1f%% %s\n",
				m.Name, m.Paper, m.Measured, m.Deviation()*100, m.Unit)
		}
	}
	var names []string
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pts := r.Series[name]
		fmt.Fprintf(&b, "series %s (%d points): ", name, len(pts))
		step := len(pts) / 12
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(pts); i += step {
			fmt.Fprintf(&b, "(%.3g, %.3g) ", pts[i].X, pts[i].Y)
		}
		b.WriteString("\n")
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// Bed is a fully assembled ROS instance on a fresh simulation environment:
// one rack stack (library, RAID-1 MV, page-cached RAID-5 buffer, OLFS).
type Bed struct {
	Env *sim.Env
	*cluster.Rack
}

// NewBed assembles one rack stack on a fresh environment through
// cluster.NewRackStack; zero fields of cfg take that function's defaults.
func NewBed(cfg cluster.StackConfig) (*Bed, error) {
	env := sim.NewEnv()
	r, err := cluster.NewRackStack(env, 0, cfg)
	if err != nil {
		return nil, err
	}
	return &Bed{Env: env, Rack: r}, nil
}

// Run executes fn as a simulation process and drains the environment.
func (b *Bed) Run(fn func(p *sim.Proc) error) error {
	var err error
	b.Env.Go("experiment", func(p *sim.Proc) {
		err = fn(p)
	})
	b.Env.Run()
	if err == nil && b.Env.Deadlocked() {
		err = fmt.Errorf("experiments: simulation deadlocked")
	}
	return err
}

// pat fills deterministic non-zero data.
func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed + 1
	}
	return b
}

// seconds converts a virtual duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// All runs the complete experiment suite in order.
func All() ([]Result, error) {
	runs := []func() (Result, error){
		Table1, Table2, Table3,
		Fig6, Fig7, Fig8, Fig9, Fig10,
		MVSize, MVRecovery, TCO, Power, Reliability,
	}
	var out []Result
	for _, fn := range runs {
		r, err := fn()
		if err != nil {
			return out, fmt.Errorf("%s failed: %w", funcName(fn), err)
		}
		out = append(out, r)
	}
	return out, nil
}

func funcName(fn interface{}) string { return fmt.Sprintf("%T", fn) }
