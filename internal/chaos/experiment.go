package chaos

import (
	"fmt"
	"strings"
	"time"

	"ros"
	"ros/internal/experiments"
	"ros/internal/obs"
)

// telemetryWindow is the sampling interval chaos campaigns run with; the
// alerting contract is detection within one such window of the injection.
// This lives in the chaos package (not internal/experiments) because it runs
// full campaigns, and experiments cannot import ros without creating a cycle
// through the root package's benchmarks.
const telemetryWindow = 30 * time.Second

// TelemetryExperiment measures the fault→alert pipeline end to end: two
// deterministic chaos campaigns (whole-drive death on a single rack; a rack
// knocked off a 3-rack federation) run with telemetry on, and the report
// compares each fault's alert detection latency against the
// one-sampling-window bound plus its recovery latency after the heal phase.
// The exported result embeds the campaigns' final series tails and the alert
// incident logs.
func TelemetryExperiment() (experiments.Result, error) {
	res := experiments.Result{
		ID:     "telemetry",
		Title:  "Fault→alert detection and recovery latency (30s sampling)",
		Series: map[string][]experiments.Point{},
	}

	drive, err := Run(Config{
		Seed:   51,
		Faults: "optical.drive.dead:every=40,count=2;optical.read:p=0.01",
	})
	if err != nil {
		return res, err
	}
	rackOff, err := Run(Config{
		Seed:   21,
		Faults: "rack.offline@rack0",
		Opts:   ros.Options{Racks: 3, Replicas: 2},
	})
	if err != nil {
		return res, err
	}

	var notes []string
	for _, c := range []struct {
		name string
		rule string
		rep  *Report
	}{
		{"drive-dead", "optical-drive-dead", drive},
		{"rack-offline", "cluster-rack-offline", rackOff},
	} {
		if c.rep.Failed() {
			return res, fmt.Errorf("%s campaign violated invariants:\n%s", c.name, c.rep)
		}
		det, ok := c.rep.AlertDetection[c.rule]
		if !ok {
			return res, fmt.Errorf("%s campaign recorded no detection latency for %s", c.name, c.rule)
		}
		res.Metrics = append(res.Metrics, experiments.Metric{
			Name:     c.name + " detection latency (bound: 1 window)",
			Paper:    telemetryWindow.Seconds(),
			Measured: det.Seconds(),
			Unit:     "s",
		})
		if rec, ok := c.rep.AlertRecovery[c.rule]; ok {
			res.Metrics = append(res.Metrics, experiments.Metric{
				Name:     c.name + " recovery latency (fire→resolve)",
				Measured: rec.Seconds(),
				Unit:     "s",
			})
		}
		for _, in := range c.rep.AlertIncidents {
			notes = append(notes, fmt.Sprintf("%s: %s fired@%v resolved@%v",
				c.name, in.Rule, time.Duration(in.FiredNS), time.Duration(in.ResolvedNS)))
		}
	}

	// Embed the series that tell the story: the fault gauge rising and the
	// alert gauge tracking it, from each campaign's final tail. alert.* and
	// cluster.* are the system registry's (label ""); optical.* is rack 0's.
	embed := func(prefix string, tail []obs.SeriesDump, names ...string) {
		for _, sd := range tail {
			if sd.Label != "" && sd.Label != "rack0" {
				continue
			}
			for _, name := range names {
				if sd.Name != name {
					continue
				}
				pts := make([]experiments.Point, 0, len(sd.Points))
				for _, pt := range sd.Points {
					pts = append(pts, experiments.Point{X: float64(pt.T) / float64(time.Second), Y: pt.V})
				}
				res.Series[prefix+"/"+name] = pts
			}
		}
	}
	embed("drive-dead", drive.SeriesTail, "optical.drives_dead", "alert.firing")
	embed("rack-offline", rackOff.SeriesTail, "cluster.racks_offline", "alert.firing")
	res.Notes = strings.Join(notes, "; ")
	return res, nil
}
