package main

import (
	"fmt"
	"math"
)

// runAA runs two sets of n runs of the same code, run i of either set with
// seed+i, and compares the sets: per workload and metric the medians, the
// quartile spread as a share of the median (what the benchmark's bound must
// cover), and the gap between the two medians. Virtual and count results
// must match exactly between the sets. Exit status 1 on any breach.
func runAA(n int, seed int64, passes int) int {
	breaches := 0
	for _, w := range workloads {
		var sets [2][]*runResult
		for s := 0; s < 2; s++ {
			for i := 0; i < n; i++ {
				r, err := runOnce(w, seed+int64(i), passes, "")
				if err != nil {
					fmt.Println("bench:", err)
					return 1
				}
				if !r.Correct {
					fmt.Printf("%s seed %d: INCORRECT: %s\n", w.Name, r.Seed, r.Why)
					breaches++
				}
				sets[s] = append(sets[s], r)
			}
		}
		fmt.Printf("\n== %s: 2 sets x %d runs (seeds %d..%d), %d passes each\n", w.Name, n, seed, seed+int64(n)-1, passes)
		for i := 0; i < n; i++ {
			if a, b := sets[0][i].First, sets[1][i].First; a.Fingerprint != b.Fingerprint {
				fmt.Printf("   seed %d: virtual results differ between the sets (%s vs %s)\n", a.Seed, a.Fingerprint, b.Fingerprint)
				breaches++
			}
		}
		fmt.Printf("   %-20s %14s %14s %9s %9s %9s %7s\n", "metric", "median A", "median B", "spread A", "spread B", "gap", "bound")
		for _, d := range endToEnd {
			var med, spread [2]float64
			for s := 0; s < 2; s++ {
				vals := make([]float64, 0, n)
				for _, r := range sets[s] {
					vals = append(vals, r.Metrics[d.Name])
				}
				med[s] = median(vals)
				if n >= 2 {
					q1, q3 := quartiles(vals)
					spread[s] = ratio(q3-q1, med[s])
				}
			}
			gap := ratio(med[1]-med[0], med[0])
			if d.Better == "higher" {
				gap = -gap
			}
			flag := ""
			if gap > d.Bound {
				flag += " GAP>BOUND"
				breaches++
			}
			if d.Name != "setup_s" && math.Max(spread[0], spread[1]) > d.Bound {
				flag += " SPREAD>BOUND"
				breaches++
			} else if d.Name != "setup_s" && math.Max(spread[0], spread[1]) > d.Bound/3 {
				flag += " (spread above a third of the bound)"
			}
			fmt.Printf("   %-20s %14.4f %14.4f %8.2f%% %8.2f%% %+8.2f%% %6.1f%%%s\n",
				d.Name, med[0], med[1], 100*spread[0], 100*spread[1], 100*gap, 100*d.Bound, flag)
		}
	}
	if breaches > 0 {
		fmt.Printf("\naa: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("\naa: both sets agree within every bound")
	return 0
}
