package stats

import (
	"testing"
	"testing/quick"
)

func TestProportionPointEstimate(t *testing.T) {
	if got := (Proportion{Successes: 3, Trials: 12}).P(); got != 0.25 {
		t.Errorf("P = %v", got)
	}
	if got := (Proportion{}).P(); got != 0 {
		t.Errorf("empty P = %v", got)
	}
}

func TestWilsonProperties(t *testing.T) {
	f := func(succ8, trials8 uint8) bool {
		trials := int(trials8) + 1
		succ := int(succ8) % (trials + 1)
		p := Proportion{Successes: succ, Trials: trials}
		lo, hi, err := p.Wilson(0.95)
		if err != nil {
			return false
		}
		ph := p.P()
		return lo >= 0 && hi <= 1 && lo <= ph+1e-12 && hi >= ph-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonExtremeRates(t *testing.T) {
	// 0 successes must not produce a zero-width interval.
	lo, hi, err := Proportion{Successes: 0, Trials: 100}.Wilson(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi < 0.01 || hi > 0.10 {
		t.Errorf("Wilson(0/100) = [%v, %v]", lo, hi)
	}
}

func TestValidation(t *testing.T) {
	if _, err := zFor(0.5); err == nil {
		t.Error("accepted unsupported confidence")
	}
	if _, _, err := (Proportion{Successes: 1, Trials: 2}).Wilson(0.5); err == nil {
		t.Error("Wilson accepted unsupported confidence")
	}
	if lo, hi, _ := (Proportion{}).Wilson(0.95); lo != 0 || hi != 1 {
		t.Errorf("empty proportion must span [0, 1], got [%v, %v]", lo, hi)
	}
}
