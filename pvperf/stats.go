package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// supportedPercentiles are the percentiles the benchmark reports. A tail
// percentile is only reported when at least minBeyond samples lie beyond
// it, so a single outlier can never be the whole tail.
var supportedPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in a sorted sample of
// n values (the rule internal/stats and pvserve's /v1/stats use). The
// epsilon keeps p*n/100 from rounding up past an exact rank (99.9% of
// 10000 is 9990.000000000002 in floating point).
func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(idx, 0), n-1)
}

// percentile returns the nearest-rank percentile p of xs. It refuses a
// percentile outside supportedPercentiles and one with fewer than
// minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if !slices.Contains(supportedPercentiles, p) {
		return 0, fmt.Errorf("percentile p%g is not supported (want one of %v)", p, supportedPercentiles)
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", p)
	}
	idx := rankIndex(len(xs), p)
	if beyond := len(xs) - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, len(xs), beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[idx], nil
}

// tailPercentile picks the highest supported percentile of an n-sample
// with at least minBeyond samples beyond it.
func tailPercentile(n int) (float64, error) {
	for i := len(supportedPercentiles) - 1; i >= 0; i-- {
		p := supportedPercentiles[i]
		if n-1-rankIndex(n, p) >= minBeyond {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples support no tail percentile (need %d beyond p50)", n, minBeyond)
}

// median is the middle value of xs (mean of the two middle values for an
// even count). It is used for repeated set-up, checkpoint and recovery
// timings, where there are too few samples for a percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }
