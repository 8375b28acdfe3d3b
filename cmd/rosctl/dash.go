package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ros"
	"ros/internal/obs"
	"ros/internal/sim"
)

// sparkGlyphs are the eight-level bars used for series sparklines.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// sparkTail is how many trailing samples a dashboard sparkline shows.
const sparkTail = 30

// rateWindow is the trailing window of the dashboard's rate column, the same
// 5 minutes the sampler's quantiles and alert rules look back over.
const rateWindow = 5 * time.Minute

// dashSeries is the curated series set `top` shows without a filter: one
// headline per layer (namespace, scheduler, optical mechanics, federation,
// alerting). Series not sampled yet are skipped.
var dashSeries = []string{
	"olfs.files_written",
	"olfs.op.read.p99",
	"olfs.op.write.p99",
	"sched.queue_depth",
	"optical.burns",
	"optical.bytes_read",
	"optical.drives_dead",
	"cluster.writes",
	"cluster.racks_up",
	"cluster.rerepl_backlog",
	"alert.firing",
}

// sparkline renders pts as an 8-level bar chart scaled to their min..max.
func sparkline(pts []obs.Point) string {
	if len(pts) == 0 {
		return ""
	}
	mn, mx := pts[0].V, pts[0].V
	for _, pt := range pts {
		if pt.V < mn {
			mn = pt.V
		}
		if pt.V > mx {
			mx = pt.V
		}
	}
	var b strings.Builder
	for _, pt := range pts {
		lvl := 0
		if mx > mn {
			lvl = int((pt.V - mn) / (mx - mn) * float64(len(sparkGlyphs)-1))
		}
		b.WriteRune(sparkGlyphs[lvl])
	}
	return b.String()
}

// fmtValue renders a sample for display: latency-quantile series read as
// virtual nanoseconds and print as durations, everything else as a number.
func fmtValue(name string, v float64) string {
	if strings.HasSuffix(name, ".p50") || strings.HasSuffix(name, ".p95") || strings.HasSuffix(name, ".p99") {
		return time.Duration(int64(v)).Round(time.Millisecond).String()
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// dashboard renders one frame of the fleet view: firing alerts, then the
// selected series (curated set, or every series matching filter) with last
// value, windowed rate and a sparkline.
func dashboard(sys *ros.System, p *sim.Proc, filter string) string {
	var b strings.Builder
	tele, alerts := sys.Telemetry, sys.Alerts
	fmt.Fprintf(&b, "ROS fleet — t=%v  sample every %v, window %v, %d passes\n",
		p.Now(), tele.Config().Interval, rateWindow, tele.Passes())

	firing := alerts.Firing()
	if len(firing) == 0 {
		b.WriteString("alerts: none firing\n")
	} else {
		fmt.Fprintf(&b, "alerts: %d firing\n", len(firing))
		for _, a := range firing {
			label := a.Label
			if label == "" {
				label = "system"
			}
			fmt.Fprintf(&b, "  ! %-24s %-8s since=%-12v value=%s\n",
				a.Rule, a.State, time.Duration(a.SinceNS), fmtValue(a.Rule, a.Value))
		}
	}

	// Collect rows: curated names across all labels, or a substring match.
	type row struct {
		label string
		sr    *obs.Series
	}
	var rows []row
	if filter == "" {
		for _, name := range dashSeries {
			for _, sr := range tele.Find(name) {
				rows = append(rows, row{sr.Label, sr})
			}
		}
	} else {
		tele.Each(func(sr *obs.Series) {
			if strings.Contains(sr.Name, filter) {
				rows = append(rows, row{sr.Label, sr})
			}
		})
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].sr.Name != rows[j].sr.Name {
				return rows[i].sr.Name < rows[j].sr.Name
			}
			return rows[i].label < rows[j].label
		})
	}
	if len(rows) == 0 {
		b.WriteString("no sampled series yet (telemetry disabled, or no samples taken)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s %-26s %12s %12s  %s\n", "SOURCE", "SERIES", "LAST", "RATE/S", "TREND")
	for _, r := range rows {
		label := r.label
		if label == "" {
			label = "system"
		}
		last := r.sr.Last()
		rate := ""
		if r.sr.Kind == obs.KindCounter {
			rate = fmt.Sprintf("%.3f", r.sr.Rate(rateWindow))
		}
		fmt.Fprintf(&b, "%-8s %-26s %12s %12s  %s\n",
			label, r.sr.Name, fmtValue(r.sr.Name, last.V), rate, sparkline(r.sr.Points(sparkTail)))
	}
	return b.String()
}

// topCommand implements `top [filter]`: one dashboard frame over a fresh
// sampling pass (so the frame reflects the current instant, not the last
// periodic tick).
func topCommand(sys *ros.System, p *sim.Proc, w io.Writer, args []string) error {
	if sys.Telemetry == nil {
		return fmt.Errorf("telemetry disabled (rerun with -sample-every > 0)")
	}
	filter := ""
	if len(args) > 0 {
		filter = args[0]
	}
	sys.Telemetry.SampleNow()
	fmt.Fprint(w, dashboard(sys, p, filter))
	return nil
}

// watchCommand implements `watch [frames] [filter]`: the live dashboard. Each
// frame advances virtual time by one sampling interval (the sampler daemon
// ticks during the sleep), clears the screen and redraws — background work
// (burn daemon, re-replication, auto-heal) visibly moves the series.
func watchCommand(sys *ros.System, p *sim.Proc, w io.Writer, args []string) error {
	if sys.Telemetry == nil {
		return fmt.Errorf("telemetry disabled (rerun with -sample-every > 0)")
	}
	frames := 8
	filter := ""
	for _, a := range args {
		if n, err := fmt.Sscanf(a, "%d", &frames); n == 1 && err == nil {
			continue
		}
		filter = a
	}
	interval := sys.Telemetry.Config().Interval
	for f := 0; f < frames; f++ {
		p.Sleep(interval)
		fmt.Fprint(w, "\033[2J\033[H") // clear screen, home cursor
		fmt.Fprintf(w, "[frame %d/%d]\n%s", f+1, frames, dashboard(sys, p, filter))
	}
	return nil
}

// alertsCommand implements `alerts [--json]`: active alert states plus the
// incident log with detection and recovery latencies.
func alertsCommand(sys *ros.System, w io.Writer, args []string) error {
	if sys.Alerts == nil {
		return fmt.Errorf("alerting disabled (rerun with -sample-every > 0)")
	}
	if len(args) > 0 && args[0] == "--json" {
		js, err := sys.Alerts.IncidentsJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(js))
		return nil
	}
	fmt.Fprintf(w, "  %d rule(s) loaded:\n", len(sys.Alerts.Rules()))
	for _, r := range sys.Alerts.Rules() {
		fmt.Fprintf(w, "    %s\n", r.String())
	}
	states := sys.Alerts.States()
	if len(states) == 0 {
		fmt.Fprintln(w, "  all quiet: no pending, firing or clearing alerts")
	}
	for _, a := range states {
		label := a.Label
		if label == "" {
			label = "system"
		}
		fmt.Fprintf(w, "  %-8s %-24s [%s] state=%s since=%v value=%s\n",
			label, a.Rule, label, a.State, time.Duration(a.SinceNS), fmtValue(a.Rule, a.Value))
	}
	incidents := sys.Alerts.Incidents()
	if len(incidents) > 0 {
		fmt.Fprintf(w, "  incident log (%d):\n", len(incidents))
		for _, in := range incidents {
			resolved := "open"
			if !in.Open {
				resolved = fmt.Sprintf("resolved at %v (recovery %v)",
					time.Duration(in.ResolvedNS), time.Duration(in.ResolvedNS-in.FiredNS))
			}
			fmt.Fprintf(w, "    %-24s fired at %v (detection %v), %s\n",
				in.Rule, time.Duration(in.FiredNS), time.Duration(in.FiredNS-in.OnsetNS), resolved)
		}
	}
	return nil
}
