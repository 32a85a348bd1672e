package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile p (0..100] of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9)) // 80% of 50 is rank 40, whatever 0.8*50 rounds to
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the rule the
// driver applies to a metric's ten runs: exclusive method, positions
// i*(n+1)/4 in the sorted sample, linear interpolation, clamped ends.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile is the highest of the usual tail percentiles that still
// has at least ten of n samples beyond it; below 50 samples only the
// median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{80, 90, 95, 99, 99.9} {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, safe from rounding
			best = p
		}
	}
	return best
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
