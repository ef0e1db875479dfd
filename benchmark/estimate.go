package main

import (
	"sort"
	"syscall"
)

// median returns the middle of xs (mean of the two middles for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest of the percentiles 90, 99, 99.9
// and 99.99 that still has at least ten samples beyond it, and its
// value; with too few samples for any of them it returns the median.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := len(sorted)
	if n == 0 {
		return 50, 0
	}
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10 {
			pct = p
		}
	}
	at := int(float64(n) * pct / 100)
	if at >= n {
		at = n - 1
	}
	return pct, sorted[at]
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, computed the way Python's
// statistics.quantiles(xs, n=4) cuts them — the acceptance rule
// CALIBRATION.md is written against.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		return 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / median(s)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
