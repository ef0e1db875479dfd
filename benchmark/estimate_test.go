package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// One stalled segment must not move a window's figures: that is the
// reason the harness cuts windows into segments at all.
func TestSummariseIgnoresOneStall(t *testing.T) {
	steady := segment{PairsPerS: 2000, ReqP50Us: 30, CPUUsPerPair: 2}
	stalled := segment{PairsPerS: 300, ReqP50Us: 900, CPUUsPerPair: 11}
	w := window{segments: []segment{steady, steady, stalled, steady, steady}}
	w.summarise()
	if w.pairsPerS != 2000 || w.reqP50Us != 30 || w.cpuUsPerPair != 2 {
		t.Errorf("summarise = %v pairs/s, %v us, %v us/pair; the stalled segment moved it", w.pairsPerS, w.reqP50Us, w.cpuUsPerPair)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{50, 50, 25},            // 5 samples beyond p90: too few
		{100, 90, 90},           // exactly 10 beyond p90
		{999, 90, 899},          // 9.99 beyond p99: still p90
		{1000, 99, 990},         // exactly 10 beyond p99
		{100_000, 99.99, 99990}, // 10 beyond p99.99
	} {
		pct, v := tailPercentile(ramp(c.n))
		if pct != c.pct || v != c.want {
			t.Errorf("tailPercentile(%d samples) = p%v %v, want p%v %v", c.n, pct, v, c.pct, c.want)
		}
	}
	if pct, v := tailPercentile(nil); pct != 50 || v != 0 {
		t.Errorf("tailPercentile(nil) = p%v %v", pct, v)
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10.0, 10.4, 9.9, 10.1, 10.2, 9.7}, 0.039800995024875475},
		{[]float64{5, 1, 9}, 1.6},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
