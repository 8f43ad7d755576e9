package main

import (
	"fmt"

	"repro/internal/xmath"
)

// minBeyond is the fewest samples that must lie above a reported tail
// percentile: with fewer, the percentile is set by a handful of outliers
// and does not repeat from run to run.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs, interpolated
// between closest ranks as xmath.Percentile does. For q above the median
// it refuses (with an error) when fewer than minBeyond samples lie beyond
// the percentile, so a p95 needs at least 200 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	if q > 0.5 {
		if beyond := float64(n) * (1 - q); beyond < minBeyond {
			return 0, fmt.Errorf("p%g of %d samples has %.1f samples beyond it, want at least %d",
				100*q, n, beyond, minBeyond)
		}
	}
	return xmath.Percentile(xs, 100*q), nil
}

// median is the 0.5 percentile, which needs no samples beyond it.
func median(xs []float64) float64 {
	m, err := percentile(xs, 0.5)
	if err != nil {
		return 0
	}
	return m
}
