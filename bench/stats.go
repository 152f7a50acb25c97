package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified. An empty
// slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is the
// rule the acceptance driver applies to a set of runs. Fewer than two
// values have no spread: all three are the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i·(n+1)/4 on a 1-based axis. Like Python, the index is
		// clamped to the data and the offset taken from the clamped index,
		// so a cut point outside the data is extrapolated.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// tailPerMille are the tails a timing may be reported at, as the share of
// samples beyond the percentile in thousandths: p99.9, p99, p95, p90, p75.
var tailPerMille = []int{1, 10, 50, 100, 250}

// tailPercent picks the highest percentile that still has at least ten
// of the n samples beyond it; ok is false when even p75 does not.
func tailPercent(n int) (pct float64, ok bool) {
	for _, beyond := range tailPerMille {
		if n*beyond >= 10*1000 {
			return float64(1000-beyond) / 10, true
		}
	}
	return 0, false
}

// interval is units of work on the phase's clock (one op; or the
// queries between two clock reads): it ran from start to end, both
// measured from the phase's first instant.
type interval struct {
	start, end time.Duration
	units      float64
}

// bucketRates spreads every interval's work over the buckets it
// overlaps, in proportion to the time it spent in each, and returns the
// work per second of each of the n buckets. Counting whole completions
// instead would quantise a 4-ops-per-second workload to steps of a
// quarter; the fractional count is continuous and sums to the same total.
func bucketRates(ivs []interval, bucket time.Duration, n int) []float64 {
	rates := make([]float64, n)
	for _, iv := range ivs {
		d := iv.end - iv.start
		if d <= 0 {
			if b := int(iv.end / bucket); b >= 0 && b < n {
				rates[b] += iv.units
			}
			continue
		}
		for b := int(iv.start / bucket); b < n && time.Duration(b)*bucket < iv.end; b++ {
			if b < 0 {
				continue
			}
			lo := max(iv.start, time.Duration(b)*bucket)
			hi := min(iv.end, time.Duration(b+1)*bucket)
			rates[b] += iv.units * float64(hi-lo) / float64(d)
		}
	}
	for b := range rates {
		rates[b] /= bucket.Seconds()
	}
	return rates
}

// bucketMedianRate is the throughput a phase reports: the median of
// its per-bucket rates, so one second stolen by a neighbour does not
// move it.
func bucketMedianRate(ivs []interval, phase time.Duration) float64 {
	bucket := time.Second
	n := int(phase / bucket)
	if n < 1 {
		// Phases shorter than a bucket (the smoke test) are one bucket.
		bucket, n = phase, 1
	}
	return median(bucketRates(ivs, bucket, n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
