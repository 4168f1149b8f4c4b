package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the two middle samples for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOfClasses is the mean over classes of each class's median: the
// typical latency of a workload that mixes kinds of jobs whose latencies
// differ, where a median over all of them falls in the gap between the
// kinds and reads whichever sample sits next to it.
func medianOfClasses(byClass map[string][]float64) float64 {
	if len(byClass) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range byClass {
		sum += median(xs)
	}
	return sum / float64(len(byClass))
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the tail rule: report the highest percentile of
// tailLadder that has at least minBeyond samples strictly above its
// nearest-rank position, so a tail is never read off a handful of
// samples. ok is false when even the median lacks minBeyond samples
// beyond it.
func tailPercentile(xs []float64, minBeyond int) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		// Nearest rank; the epsilon keeps 99.9% of 10000 at 9990 despite
		// 99.9 having no exact binary form.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if rank <= n && n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
