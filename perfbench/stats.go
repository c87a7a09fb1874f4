package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the fewest samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// tailQ is the tail percentile the open-loop phases report. A p99
// from the same phases read up to twice as high on one run as on the
// next on a 2-vCPU shared host, while the p90 held within a few per
// cent, so the p90 is the tail a change can be judged by.
const tailQ = 0.90

// samplesFor returns how many samples a q-quantile needs so that at
// least minTail of them lie beyond it.
func samplesFor(q float64) int {
	return int(math.Ceil(minTail / (1 - q)))
}

// quantile returns the q-quantile of sorted by nearest rank. ok is
// false when fewer than minTail samples lie beyond it, and then the
// value must not be reported.
func quantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || n < samplesFor(q) {
		return math.NaN(), false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], true
}

// median returns the middle value (mean of the middle pair) of xs
// without reordering it; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
