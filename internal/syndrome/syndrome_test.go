package syndrome

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	cases := []struct {
		x    float64
		want int
	}{
		{1e-9, 0}, {0, 0},
		{1e-8, 1}, {5e-8, 1},
		{1e-7, 2},
		{0.5, 8}, // 1e-1 decade
		{1, 9},   // 1e0 decade
		{99, 10}, // 1e1 decade
		{100, 11}, {1e6, 11},
	}
	for _, c := range cases {
		before := h.Buckets[c.want]
		h.Add(c.x)
		if h.Buckets[c.want] != before+1 {
			t.Errorf("Add(%g) did not land in bucket %d (%s)", c.x, c.want, BucketLabel(c.want))
		}
	}
	if h.Total != len(cases) {
		t.Errorf("Total = %d, want %d", h.Total, len(cases))
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Pow(10, -9+11*rng.Float64())
	}
	h := Build(xs)
	var sum float64
	for i := 0; i < 12; i++ {
		sum += h.Fraction(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestPowerLawFitRecoversParameters(t *testing.T) {
	// Generate from a known power law and verify the fit recovers alpha.
	rng := rand.New(rand.NewSource(7))
	truth := PowerLaw{Alpha: 2.5, Xmin: 0.01}
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	fit, err := Fit(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.25 {
		t.Errorf("fitted alpha %.3f, want ~%.1f", fit.Alpha, truth.Alpha)
	}
	if fit.KS > 0.1 {
		t.Errorf("KS distance %.3f too large for in-family data", fit.KS)
	}
}

func TestPowerLawSampleRespectsXmin(t *testing.T) {
	p := PowerLaw{Alpha: 3, Xmin: 0.5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if v := p.Sample(rng); v < p.Xmin {
			t.Fatalf("sample %v below xmin", v)
		}
	}
}

func TestFitRejectsTinySamples(t *testing.T) {
	if _, err := Fit([]float64{1, 2, 3}); err == nil {
		t.Error("Fit accepted 3 samples")
	}
}

func TestShapiroWilkAcceptsNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 5
	}
	w, p, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if w < 0.95 {
		t.Errorf("W = %.4f for normal data, want close to 1", w)
	}
	if p < 0.01 {
		t.Errorf("p = %.4f rejects normality of normal data", p)
	}
}

func TestShapiroWilkRejectsPowerLaw(t *testing.T) {
	// The paper's use case: syndrome distributions follow a power law, so
	// the test must reject normality (p < 0.05).
	rng := rand.New(rand.NewSource(13))
	pl := PowerLaw{Alpha: 2.0, Xmin: 0.001}
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = pl.Sample(rng)
	}
	_, p, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if p >= 0.05 {
		t.Errorf("p = %.4f fails to reject normality of power-law data", p)
	}
}

func TestShapiroWilkBounds(t *testing.T) {
	if _, _, err := ShapiroWilk(make([]float64, 5)); err == nil {
		t.Error("accepted n<12")
	}
	same := make([]float64, 20)
	if _, _, err := ShapiroWilk(same); err == nil {
		t.Error("accepted constant sample")
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		z := normQuantile(p)
		if math.Abs(normCDF(z)-p) > 1e-8 {
			t.Errorf("normCDF(normQuantile(%v)) = %v", p, normCDF(z))
		}
	}
	if !math.IsNaN(normQuantile(0)) || !math.IsNaN(normQuantile(1)) {
		t.Error("quantile at 0/1 must be NaN")
	}
}

func TestMeanVarMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	m, v := MeanVar(xs)
	if m != 2.5 || v != 1.25 {
		t.Errorf("MeanVar = %v, %v", m, v)
	}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Median([]float64{5, 1, 9}) != 5 {
		t.Error("odd median wrong")
	}
	if m, v := MeanVar(nil); m != 0 || v != 0 {
		t.Error("empty MeanVar must be zero")
	}
}
