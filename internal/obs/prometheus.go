// Prometheus text-format exposition (version 0.0.4) for registry snapshots.
// Metric names get a ros_ prefix with dots mapped to underscores; multi-rack
// systems emit one sample per rack with a rack="rackN" label plus the global
// (unlabeled) system registry. Histograms export cumulative le-buckets at the
// power-of-two nanosecond boundaries alongside _sum and _count, so a real
// Prometheus server scraping a rosfsd can recompute quantiles natively.
package obs

import (
	"fmt"
	"strings"
)

// LabeledSnapshot pairs a snapshot with its source label ("" = system/global).
type LabeledSnapshot struct {
	Label string
	Snap  Snapshot
}

// PrometheusText renders labeled snapshots in the Prometheus text exposition
// format. Families are emitted in sorted name order; within a family, samples
// follow the input snapshot order (registration order of the sources).
func PrometheusText(snaps ...LabeledSnapshot) string {
	type sample struct {
		label string
		line  func(b *strings.Builder, name, labels string)
	}
	families := map[string]struct {
		typ     string
		samples []sample
	}{}
	add := func(name, typ, label string, line func(b *strings.Builder, name, labels string)) {
		f := families[name]
		if f.typ == "" {
			f.typ = typ
		}
		f.samples = append(f.samples, sample{label: label, line: line})
		families[name] = f
	}
	for _, ls := range snaps {
		label := ls.Label
		for _, c := range ls.Snap.Counters {
			v := c.Value
			add(promName(c.Name), "counter", label, func(b *strings.Builder, name, labels string) {
				fmt.Fprintf(b, "%s%s %d\n", name, labels, v)
			})
		}
		for _, g := range ls.Snap.Gauges {
			v := g.Value
			add(promName(g.Name), "gauge", label, func(b *strings.Builder, name, labels string) {
				fmt.Fprintf(b, "%s%s %d\n", name, labels, v)
			})
		}
		for _, h := range ls.Snap.Histograms {
			h := h
			add(promName(h.Name), "histogram", label, func(b *strings.Builder, name, labels string) {
				var cum int64
				for i, n := range h.Buckets {
					if n == 0 {
						continue
					}
					cum += n
					fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(labels, fmt.Sprintf(`le="%d"`, BucketBound(i))), cum)
				}
				fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(labels, `le="+Inf"`), h.Count)
				fmt.Fprintf(b, "%s_sum%s %d\n", name, labels, h.Sum)
				fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count)
			})
		}
	}
	var b strings.Builder
	for _, name := range sortedKeys(families) {
		f := families[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.typ)
		for _, s := range f.samples {
			labels := ""
			if s.label != "" {
				labels = fmt.Sprintf(`{rack="%s"}`, s.label)
			}
			s.line(&b, name, labels)
		}
	}
	return b.String()
}

// promName maps a dotted metric name to a ros_-prefixed Prometheus name.
func promName(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "ros_" + mapped
}

// promLabels merges an existing {..} label set with one more pair.
func promLabels(existing, pair string) string {
	if existing == "" {
		return "{" + pair + "}"
	}
	return existing[:len(existing)-1] + "," + pair + "}"
}
