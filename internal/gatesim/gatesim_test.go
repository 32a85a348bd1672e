package gatesim

import (
	"testing"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

func somePatterns() []units.Pattern {
	mk := func(in isa.Instruction, warp, mask uint32) units.Pattern {
		return units.Pattern{
			Word: in.Encode(), WarpID: warp, ActiveMask: mask,
			WarpValid: 0xF, WarpReady: 0xF,
		}
	}
	return []units.Pattern{
		mk(isa.Instruction{Op: isa.OpIADD, Pred: isa.PT, Rd: 1, Rs1: 2, Rs2: 3}, 0, 0xFFFFFFFF),
		mk(isa.Instruction{Op: isa.OpFFMA, Pred: isa.PT, Rd: 4, Rs1: 5, Rs2: 6, Rs3: 7}, 1, 0xFFFF),
		mk(isa.Instruction{Op: isa.OpGLD, Pred: isa.PT, Rd: 8, Rs1: 9, Imm: 4}, 2, 0xFF),
		mk(isa.Instruction{Op: isa.OpSTS, Pred: isa.PT, Rs1: 1, Rs2: 2}, 3, 0xF0F0F0F0),
		mk(isa.Instruction{Op: isa.OpBRA, Pred: 0x1, Imm: 12}, 0, 0x1),
		mk(isa.Instruction{Op: isa.OpS2R, Pred: isa.PT, Rd: 0, Imm: isa.SRTidX}, 1, 0xFFFFFFFF),
	}
}

func TestFaultClassStrings(t *testing.T) {
	for c := Uncontrollable; c <= SWError; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty name", int(c))
		}
	}
}

func TestCampaignPartitionsFaults(t *testing.T) {
	pats := somePatterns()
	for _, u := range units.All() {
		sum := CampaignCfg(u, pats, nil, Config{})
		total := sum.NumUncontrollable + sum.NumMasked + sum.NumHang + sum.NumSWError
		if total != len(sum.Faults) {
			t.Fatalf("%s: classes sum to %d, want %d", u.Name, total, len(sum.Faults))
		}
		if sum.Patterns != len(pats) {
			t.Errorf("%s: recorded %d patterns, want %d", u.Name, sum.Patterns, len(pats))
		}
		var fracs float64
		for c := Uncontrollable; c <= SWError; c++ {
			fracs += sum.Fraction(c)
		}
		if fracs < 0.999 || fracs > 1.001 {
			t.Errorf("%s: fractions sum to %v", u.Name, fracs)
		}
	}
}

func TestCampaignIsRepeatable(t *testing.T) {
	pats := somePatterns()
	u := units.Fetch()
	s1 := CampaignCfg(u, pats, nil, Config{})
	s2 := CampaignCfg(u, pats, nil, Config{})
	for i := range s1.Class {
		if s1.Class[i] != s2.Class[i] {
			t.Fatalf("fault %d classified %v then %v", i, s1.Class[i], s2.Class[i])
		}
	}
}

func TestMorePatternsNeverReduceActivation(t *testing.T) {
	// Adding stimuli can only activate more faults: the uncontrollable set
	// must shrink monotonically.
	pats := somePatterns()
	u := units.Decoder()
	s1 := CampaignCfg(u, pats[:2], nil, Config{})
	s2 := CampaignCfg(u, pats, nil, Config{})
	if s2.NumUncontrollable > s1.NumUncontrollable {
		t.Errorf("uncontrollable grew from %d to %d with more patterns",
			s1.NumUncontrollable, s2.NumUncontrollable)
	}
}

func TestDelayFaultCampaign(t *testing.T) {
	pats := somePatterns()
	u := units.Decoder()
	sum := CampaignFaultsCfg(u, pats, netlist.DelayFaultList(u.NL), nil, Config{})
	if got := sum.NumUncontrollable + sum.NumMasked + sum.NumHang + sum.NumSWError; got != len(sum.Faults) {
		t.Fatalf("classes sum to %d, want %d", got, len(sum.Faults))
	}
	// Delay faults on stable nets mask; toggling nets can propagate. Both
	// classes should exist on a real unit driven by varied patterns.
	if sum.NumSWError == 0 {
		t.Error("no delay fault propagated")
	}
	if sum.NumUncontrollable+sum.NumMasked == 0 {
		t.Error("every delay fault propagated (implausible)")
	}
	// A delay campaign should find fewer software-visible faults per site
	// than stuck-at: the fault only matters on toggling cycles.
	st := CampaignCfg(u, pats, nil, Config{})
	delayRate := float64(sum.NumSWError) / float64(len(sum.Faults))
	stuckRate := float64(st.NumSWError) / float64(len(st.Faults))
	if delayRate > stuckRate {
		t.Errorf("delay SW-error rate %.2f exceeds stuck-at %.2f", delayRate, stuckRate)
	}
}

func TestSampledCampaignMatchesExhaustiveWithinMargin(t *testing.T) {
	pats := somePatterns()
	u := units.WSC()
	exhaustive := CampaignCfg(u, pats, nil, Config{})

	all := netlist.FaultList(u.NL)
	sample, err := SampleFaults(all, 0.05, 0.95, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) >= len(all) {
		t.Fatalf("sample %d not smaller than population %d", len(sample), len(all))
	}
	sampled := CampaignFaultsCfg(u, pats, sample, nil, Config{})

	// Every class fraction must agree within 2x the requested margin
	// (the factor absorbs the worst-case-p assumption).
	for c := Uncontrollable; c <= SWError; c++ {
		d := exhaustive.Fraction(c) - sampled.Fraction(c)
		if d < 0 {
			d = -d
		}
		if d > 0.10 {
			t.Errorf("class %v: exhaustive %.3f vs sampled %.3f (diff %.3f)",
				c, exhaustive.Fraction(c), sampled.Fraction(c), d)
		}
	}
}

func TestSampleFaultsDeterministic(t *testing.T) {
	all := netlist.FaultList(units.Decoder().NL)
	s1, err := SampleFaults(all, 0.03, 0.95, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := SampleFaults(all, 0.03, 0.95, 5)
	if len(s1) != len(s2) {
		t.Fatal("nondeterministic sample size")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("nondeterministic sample")
		}
	}
	// Tiny populations degrade to exhaustive.
	few := all[:20]
	s3, _ := SampleFaults(few, 0.03, 0.95, 5)
	if len(s3) != len(few) {
		t.Errorf("small population sampled down to %d", len(s3))
	}
}
