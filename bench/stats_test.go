package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // p75 of 39 leaves 9.75 beyond
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercent(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercent(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) extrapolates: [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) = [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{5, 4, 3, 2, 1})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of five = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// closedLoop lays ops of the given lengths end to end from time zero.
func closedLoop(lens ...time.Duration) []interval {
	var ivs []interval
	at := time.Duration(0)
	for _, l := range lens {
		ivs = append(ivs, interval{at, at + l, 1})
		at += l
	}
	return ivs
}

func TestBucketMedianIgnoresOneStalledSecond(t *testing.T) {
	// Ten seconds of 100 ms ops, except that one op stalls for a second.
	var lens []time.Duration
	for i := 0; i < 90; i++ {
		if i == 35 {
			lens = append(lens, time.Second)
			continue
		}
		lens = append(lens, 100*time.Millisecond)
	}
	got := bucketMedianRate(closedLoop(lens...), 10*time.Second)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("median bucket rate %v with one stalled second, want 10", got)
	}
	if all := float64(len(lens)) / 10; all >= 10 {
		t.Fatalf("the plain mean %v should have been dragged down", all)
	}
}

func TestBucketRatesSpreadAnOpOverTheBucketsItSpans(t *testing.T) {
	// One op from 0.5 s to 2.5 s: a quarter, a half and a quarter.
	got := bucketRates([]interval{{500 * time.Millisecond, 2500 * time.Millisecond, 1}}, time.Second, 3)
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d holds %v of the op, want %v", i, got[i], want[i])
		}
	}
	// 64 queries between two clock reads count as 64.
	got = bucketRates([]interval{{0, time.Second, 64}}, time.Second, 1)
	if got[0] != 64 {
		t.Errorf("weighted interval counted as %v, want 64", got[0])
	}
}
