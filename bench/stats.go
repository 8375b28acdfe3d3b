package main

import (
	"math"
	"sort"
	"time"
)

// beyond is how many samples must lie above a reported percentile: with
// fewer, the percentile is one or two outliers, not a property of the system.
const beyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest rank,
// lowered until at least `beyond` samples lie above it, and the quantile
// actually used. Fewer than beyond+1 samples give the minimum.
func percentile(sorted []time.Duration, q float64) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx > n-1-beyond {
		idx = n - 1 - beyond
	}
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// segmentMin sums, segment by segment, the smallest cost any pass paid for
// that segment. Passes replay identical work, so what differs between them
// is interference from the host; the minimum is the least-disturbed
// observation of each segment. Passes must have equal length.
func segmentMin(passes [][]time.Duration) time.Duration {
	if len(passes) == 0 {
		return 0
	}
	var sum time.Duration
	for i := range passes[0] {
		best := passes[0][i]
		for _, p := range passes[1:] {
			if p[i] < best {
				best = p[i]
			}
		}
		sum += best
	}
	return sum
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method, as Python's
// statistics.quantiles(v, n=4) computes them. Needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
