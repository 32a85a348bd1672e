// Package stats provides confidence intervals on measured proportions
// (AVF, FAPR, EPR are all proportions over injections).
package stats

import (
	"fmt"
	"math"
)

// zFor maps a confidence level to the two-sided normal quantile.
func zFor(confidence float64) (float64, error) {
	switch confidence {
	case 0.90:
		return 1.6449, nil
	case 0.95:
		return 1.9600, nil
	case 0.99:
		return 2.5758, nil
	}
	return 0, fmt.Errorf("stats: unsupported confidence %v (use 0.90, 0.95, 0.99)", confidence)
}

// Proportion is an estimated rate over n trials.
type Proportion struct {
	Successes int
	Trials    int
}

// P returns the point estimate.
func (p Proportion) P() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval [lo, hi], which stays sane for
// extreme rates and small samples (e.g. a model that never masked).
func (p Proportion) Wilson(confidence float64) (lo, hi float64, err error) {
	z, err := zFor(confidence)
	if err != nil {
		return 0, 0, err
	}
	if p.Trials == 0 {
		return 0, 1, nil
	}
	n := float64(p.Trials)
	ph := p.P()
	z2 := z * z
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z / den * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n))
	return math.Max(0, center-half), math.Min(1, center+half), nil
}
