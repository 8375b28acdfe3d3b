package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ros/internal/cluster"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
)

// AblationScheduler compares the two mechanical-scheduler policies
// (internal/sched) under a mixed workload on a partially filled archive:
// eight concurrent cold reads whose arrays are spread across roller layers
// race four queued background burns on two drive groups.
//
// fifo reproduces the legacy arrival-order arbitration: queued burns admitted
// before the reads hold both groups for whole burn cycles, and the reads are
// then served in (shuffled) arrival order, zigzagging the arm. qos-scan
// classes interactive reads above burns and serves same-class misses in
// SCAN/elevator order, so the reads overtake the waiting burns and the arm
// sweeps the roller once. Both policies complete the identical work, so the
// makespan (throughput) stays comparable while p95 read latency and arm
// travel drop.
func AblationScheduler() (Result, error) {
	res := Result{ID: "ablate-sched", Title: "Mechanical scheduling: fifo vs qos-scan (internal/sched)"}
	// Layers holding the read targets, and the shuffled order the readers
	// arrive in (same for both policies, so fifo's service order zigzags).
	layers := []int{80, 70, 60, 50, 40, 30, 20, 10}
	arrival := []int{3, 0, 6, 2, 7, 4, 1, 5}

	type outcome struct {
		p95      float64 // p95 cold-read latency in the mixed phase, s
		makespan float64 // mixed phase duration (reads + burns all done), s
		travel   float64 // arm travel in the mixed phase, layers
		armSec   float64 // arm busy time in the mixed phase, s
		critpath string  // aggregated cold-read critical-path breakdown
	}
	measure := func(policy sched.Policy) (outcome, error) {
		var out outcome
		bed, err := NewBed(cluster.StackConfig{DriveGroups: 2, FS: olfs.Config{
			DataDiscs: 2, ParityDiscs: 1, AutoBurn: false,
			RecycleAfterBurn: true, BurnStagger: 5 * time.Second,
			Sched: sched.Config{Policy: policy},
		}})
		if err != nil {
			return out, err
		}
		defer bed.Env.Close()
		fs := bed.FS
		travelCtr := fs.Obs().Counter("sched.arm_travel_layers")
		var lats []time.Duration
		err = bed.Run(func(p *sim.Proc) error {
			// Setup: burn one array per target layer. FindEmptyTray scans
			// top-down, so marking the trays above each target Used makes the
			// archive look partially filled and spreads the arrays out.
			mask := func(from, to int) {
				for l := from; l > to; l-- {
					for s := 0; s < rack.SlotsPerLayer; s++ {
						id := rack.TrayID{Roller: 0, Layer: l, Slot: s}
						if fs.Cat.DAState(id) == image.DAEmpty {
							fs.Cat.SetDAState(id, image.DAUsed)
						}
					}
				}
			}
			top := rack.LayersPerRoller - 1
			for i, l := range layers {
				mask(top, l)
				if err := fs.WriteFile(p, fmt.Sprintf("/sc/read%d.dat", i), pat(256<<10, byte(i+1))); err != nil {
					return err
				}
				if err := burnAll(p, fs); err != nil {
					return err
				}
				mask(l+1, l-1) // close the target layer's remaining slots
				top = l - 1
			}
			// Mixed phase: four background burn tasks (8 sealed buckets at
			// 2 data discs each) compete with the eight readers.
			for i := 0; i < 8; i++ {
				if err := writeImage(p, fs, fmt.Sprintf("/sc/burn%d.dat", i), pat(256<<10, byte(0x40+i))); err != nil {
					return err
				}
			}
			burnsDone, err := fs.FlushAndBurn(p)
			if err != nil {
				return err
			}
			// Let the first two burns claim both groups, then start the
			// readers; the remaining burns are already queued ahead of them.
			for !allGroupsBurning(fs.Library()) {
				p.Sleep(time.Second)
			}
			start := p.Now()
			travel0 := travelCtr.Value()
			arm0 := fs.Library().ArmTime()
			if err := p.Fork("reader", len(arrival), func(rp *sim.Proc, k int) error {
				rp.Sleep(time.Duration(k) * 2 * time.Second) // staggered arrivals
				t0 := rp.Now()
				_, e := fs.ReadFile(rp, fmt.Sprintf("/sc/read%d.dat", arrival[k]))
				lats = append(lats, rp.Now()-t0)
				return e
			}); err != nil {
				return err
			}
			if _, e := burnsDone.Wait(p); e != nil {
				return e
			}
			out.makespan = seconds(p.Now() - start)
			out.travel = float64(travelCtr.Value() - travel0)
			out.armSec = (fs.Library().ArmTime() - arm0).Seconds()
			return nil
		})
		if err != nil {
			return out, err
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out.p95 = lats[(len(lats)*95+99)/100-1].Seconds()
		out.critpath = criticalPhases(fs.Tracer(), "olfs.read")
		return out, nil
	}

	fifo, err := measure(sched.PolicyFIFO)
	if err != nil {
		return res, err
	}
	qos, err := measure(sched.PolicyQoSScan)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "p95 cold-read latency, fifo", Paper: 0, Measured: fifo.p95, Unit: "s (reads queue behind burns)"},
		{Name: "p95 cold-read latency, qos-scan", Paper: 0, Measured: qos.p95, Unit: "s (interactive outranks burns)"},
		{Name: "arm travel, fifo", Paper: 0, Measured: fifo.travel, Unit: "layers (arrival-order zigzag)"},
		{Name: "arm travel, qos-scan", Paper: 0, Measured: qos.travel, Unit: "layers (SCAN sweep)"},
		{Name: "arm busy time, fifo", Paper: 0, Measured: fifo.armSec, Unit: "s"},
		{Name: "arm busy time, qos-scan", Paper: 0, Measured: qos.armSec, Unit: "s"},
		{Name: "mixed-phase makespan, fifo", Paper: 0, Measured: fifo.makespan, Unit: "s"},
		{Name: "mixed-phase makespan, qos-scan", Paper: 0, Measured: qos.makespan, Unit: "s (identical total work)"},
	}
	res.Notes = "shape: qos-scan < fifo on p95 read latency and arm travel at comparable makespan\n" +
		"cold-read critical path, fifo:     " + fifo.critpath + "\n" +
		"cold-read critical path, qos-scan: " + qos.critpath
	return res, nil
}

// criticalPhases aggregates the critical-path attribution of every captured
// trace named root, returning a Fig 6-style per-phase latency breakdown: each
// phase's share of the summed end-to-end latency, largest first.
func criticalPhases(tr *obs.Tracer, root string) string {
	totals := map[string]time.Duration{}
	n := 0
	for _, t := range tr.Traces() {
		if t.Name != root {
			continue
		}
		n++
		for _, ph := range t.CriticalPath() {
			totals[ph.Name] += ph.Dur
		}
	}
	if n == 0 {
		return "no traces captured"
	}
	type phase struct {
		name string
		dur  time.Duration
	}
	var list []phase
	var sum time.Duration
	for name, d := range totals {
		list = append(list, phase{name, d})
		sum += d
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].dur != list[j].dur {
			return list[i].dur > list[j].dur
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%d traces", n)
	for _, ph := range list {
		fmt.Fprintf(&b, " | %s %.1f%%", ph.name, 100*float64(ph.dur)/float64(sum))
	}
	return b.String()
}
