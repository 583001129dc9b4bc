package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile. With fewer, the "p99" of a short run is really its maximum,
// and a tail claim would rest on one or two outliers.
const minBeyond = 10

// samples is a set of per-operation latencies.
type samples []time.Duration

// percentile returns the nearest-rank p-th percentile (0 < p < 100) in
// milliseconds. It is an error, not a silently lower percentile, when
// fewer than minBeyond samples lie beyond the rank.
func (s samples) percentile(p float64) (float64, error) {
	n := len(s)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it; need at least %d", p, n, max(beyond, 0), minBeyond)
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[rank-1]), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
