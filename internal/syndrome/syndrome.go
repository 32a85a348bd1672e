// Package syndrome implements the fault-syndrome analysis of Section 4.3:
// relative-error histograms (Figures 4-5), the Clauset-style power-law fit
// of the syndrome distribution, the inverse-CDF pseudo-random generator of
// Equation 1 used to inject syndromes in software, and a Shapiro-Wilk
// normality test confirming the distributions are not Gaussian.
package syndrome

//vetsim:deterministic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Histogram buckets relative errors by decade, matching the x-axis of the
// paper's Figures 4-5: below 1e-8, one bucket per decade up to 1e2, and
// above 1e2.
type Histogram struct {
	// Buckets[0] counts x < 1e-8; Buckets[i] counts 1e-8·10^(i-1) ≤ x <
	// 1e-8·10^i for i in 1..10; Buckets[11] counts x ≥ 1e2.
	Buckets [12]int
	Total   int
}

// BucketLabel names bucket i.
func BucketLabel(i int) string {
	switch {
	case i == 0:
		return "<1e-8"
	case i == 11:
		return ">=1e2"
	default:
		return fmt.Sprintf("1e%d", -8+i-1)
	}
}

// Add records a relative error.
func (h *Histogram) Add(x float64) {
	h.Total++
	if x < 1e-8 {
		h.Buckets[0]++
		return
	}
	if x >= 1e2 {
		h.Buckets[11]++
		return
	}
	i := int(math.Floor(math.Log10(x))) + 8 + 1
	if i < 1 {
		i = 1
	}
	if i > 10 {
		i = 10
	}
	h.Buckets[i]++
}

// Build constructs a histogram from samples.
func Build(xs []float64) *Histogram {
	h := &Histogram{}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Fraction returns bucket i's share of the total.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.Total)
}

// PowerLaw holds a fitted continuous power-law distribution
// p(x) ∝ x^(-alpha) for x ≥ xmin.
type PowerLaw struct {
	Alpha float64
	Xmin  float64
	// KS is the Kolmogorov-Smirnov distance of the fit over the tail.
	KS float64
	// NTail is the number of samples at or above Xmin.
	NTail int
}

// mleAlpha computes the continuous MLE for alpha given xmin
// (Clauset, Shalizi & Newman 2009, Eq. 3.1).
func mleAlpha(tail []float64, xmin float64) float64 {
	var s float64
	for _, x := range tail {
		s += math.Log(x / xmin)
	}
	if s == 0 {
		return math.Inf(1)
	}
	return 1 + float64(len(tail))/s
}

// ksDistance computes the KS statistic between the tail's empirical CDF
// and the fitted power-law CDF.
func ksDistance(tail []float64, alpha, xmin float64) float64 {
	n := float64(len(tail))
	var maxD float64
	for i, x := range tail {
		fit := 1 - math.Pow(xmin/x, alpha-1)
		emp := (float64(i) + 1) / n
		if d := math.Abs(fit - emp); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Fit estimates (alpha, xmin) by scanning candidate xmins over the sample
// quantiles and minimizing the KS distance, following Clauset et al.'s
// method. It needs at least 10 positive samples.
func Fit(xs []float64) (PowerLaw, error) {
	var pos []float64
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			pos = append(pos, x)
		}
	}
	if len(pos) < 10 {
		return PowerLaw{}, fmt.Errorf("syndrome: %d positive samples, need >= 10", len(pos))
	}
	sort.Float64s(pos)

	best := PowerLaw{KS: math.Inf(1)}
	// Candidate xmins: quantiles over the lower 90% of the sample.
	seen := map[float64]bool{}
	for q := 0; q <= 18; q++ {
		xmin := pos[q*(len(pos)-1)/20]
		if xmin <= 0 || seen[xmin] {
			continue
		}
		seen[xmin] = true
		i := sort.SearchFloat64s(pos, xmin)
		tail := pos[i:]
		if len(tail) < 10 {
			continue
		}
		alpha := mleAlpha(tail, xmin)
		if math.IsInf(alpha, 0) || alpha <= 1 {
			continue
		}
		ks := ksDistance(tail, alpha, xmin)
		if ks < best.KS {
			best = PowerLaw{Alpha: alpha, Xmin: xmin, KS: ks, NTail: len(tail)}
		}
	}
	if math.IsInf(best.KS, 0) {
		return PowerLaw{}, fmt.Errorf("syndrome: no valid power-law fit")
	}
	return best, nil
}

// Sample draws one syndrome value via Equation 1 of the paper:
//
//	relative_error = xmin · (1-r)^(-1/(alpha-1)),  r ~ U[0,1)
func (p PowerLaw) Sample(rng *rand.Rand) float64 {
	r := rng.Float64()
	return p.Xmin * math.Pow(1-r, -1/(p.Alpha-1))
}

// Mean/variance helpers for the Figure-8 variance exhibits.

// MeanVar returns the mean and (population) variance of xs.
func MeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return mean, variance
}

// Median returns the sample median.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
