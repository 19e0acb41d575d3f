package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy: the smallest value with at least q·n values at or
// below it. It returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n values.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// median is the mean of the two middle values for an even count, so that
// two-sample medians do not favour the lower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// lowerMean is the mean of the lowest keep·n values (at least one), NaN for
// an empty slice.
func lowerMean(xs []float64, keep float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sorted = sorted[:max(1, int(keep*float64(len(sorted))))]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return sum / float64(len(sorted))
}

// micros and millis convert a duration to the float units metrics carry.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tail returns the q-quantile only where at least minBeyond samples lie
// beyond it, the rule under which a tail is worth printing.
func tail(xs []float64, q float64, minBeyond int) (float64, bool) {
	if len(xs)-rank(len(xs), q) < minBeyond {
		return 0, false
	}
	return percentile(xs, q), true
}

// Sample is one completed op of a phase. Times are seconds since the
// phase began.
type Sample struct {
	Start, End float64
	Class      string
	// Units is what the op adds to the rate: 1 job, or the points of a
	// grid.
	Units float64
}

// LatencyMS is the op's latency in milliseconds.
func (s Sample) LatencyMS() float64 { return (s.End - s.Start) * 1000 }

// Snapshot is one /metrics scrape folded to name → value: a counter or
// gauge under its name, a histogram under name_sum and name_count, and a
// labelled family summed over its label values.
type Snapshot map[string]float64

// parseSnapshot folds a Prometheus exposition into a Snapshot.
func parseSnapshot(body string) (Snapshot, error) {
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return nil, err
	}
	snap := Snapshot{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Label("le") != "" {
				continue // bucket lines repeat what _count says
			}
			snap[s.Name] += s.Value
		}
	}
	return snap, nil
}

// add sums another process's snapshot into s.
func (s Snapshot) add(o Snapshot) {
	for k, v := range o {
		s[k] += v
	}
}

// delta is after − before for one name; a name absent from both reads 0.
func delta(before, after Snapshot, name string) float64 {
	return after[name] - before[name]
}
