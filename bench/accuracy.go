package main

import (
	"fmt"
	"math"

	"ros/internal/experiments"
)

// accuracySources are the paper experiments whose reference values the
// repository holds, and the rows compared.
var accuracySources = []struct {
	run  func() (experiments.Result, error)
	rows map[string]string // experiment row -> per-layer metric
}{
	{experiments.Table3, map[string]string{
		"load, uppermost layer": "rack.load_top_err_pct",
		"load, lowest layer":    "rack.load_bottom_err_pct",
	}},
	{experiments.Table1, map[string]string{"array in roller, free drives": "olfs.cold_fetch_err_pct"}},
	{experiments.Fig8, map[string]string{"total recording time": "optical.burn25_err_pct"}},
}

// modelAccuracy reruns those experiments and returns the model's error
// against the paper, so that a later "speed-up" of a virtual metric that is
// really a change to the model shows up beside it.
func modelAccuracy() (map[string]float64, error) {
	out := map[string]float64{}
	for _, src := range accuracySources {
		res, err := src.run()
		if err != nil {
			return nil, fmt.Errorf("accuracy: %w", err)
		}
		found := 0
		for _, m := range res.Metrics {
			if name, ok := src.rows[m.Name]; ok && m.Paper != 0 {
				out[name] = 100 * math.Abs(m.Measured-m.Paper) / m.Paper
				found++
			}
		}
		if found != len(src.rows) {
			return nil, fmt.Errorf("accuracy: experiment %s no longer has the rows %v", res.ID, src.rows)
		}
	}
	return out, nil
}
