package analyze_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

// randomPatterns builds arbitrary stimulus. The analyzer's guarantees are
// quantified over every stimulus, so random patterns are fair game.
func randomPatterns(rng *rand.Rand, n int) []units.Pattern {
	ps := make([]units.Pattern, n)
	for i := range ps {
		ps[i] = units.Pattern{
			Word:         isa.Word(rng.Uint64()),
			PC:           rng.Uint32() & 0xFFFF,
			WarpID:       rng.Uint32() % 32,
			ActiveMask:   rng.Uint32(),
			CTAID:        rng.Uint32() & 0xFF,
			BranchTaken:  rng.Intn(2) == 1,
			BranchTarget: uint16(rng.Uint32()),
			WarpValid:    rng.Uint32(),
			WarpReady:    rng.Uint32(),
			WarpBarrier:  rng.Uint32(),
		}
	}
	return ps
}

// Static uncontrollability is a proof about all stimuli: the campaign must
// never observe an analyzer-uncontrollable fault as activated (let alone
// as an SDC or hang), on the real units or on random sequential circuits,
// whose DFF feedback shapes the units do not have.
func TestStaticUncontrollableNeverFiresInSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patterns := randomPatterns(rng, 12)
	us := units.All()
	for trial := 0; trial < 50; trial++ {
		u := synthUnit(netlist.RandomNetlist(rng, netlist.RandomSpec{
			Inputs:  1 + rng.Intn(12),
			Gates:   5 + rng.Intn(120),
			DFFs:    1 + rng.Intn(8),
			Outputs: 1 + rng.Intn(10),
		}))
		u.Name, u.HangFields = fmt.Sprintf("random%d", trial), map[string]bool{"flow": true}
		us = append(us, u)
	}
	for _, u := range us {
		tb := analyze.Analyze(u.NL)
		sum := gatesim.CampaignCfg(u, patterns, nil, gatesim.Config{})
		for i, f := range sum.Faults {
			if tb.Controllable(f.Node, !f.Stuck) {
				continue
			}
			if sum.Class[i] != gatesim.Uncontrollable {
				t.Errorf("%s: fault %d (%v sa%v): analyzer proved uncontrollable, campaign says %v",
					u.Name, i, f.Node, f.Stuck, sum.Class[i])
			}
		}
	}
}

// The collapsed campaign must agree with the full campaign fault-for-fault
// on the real units, while simulating a meaningfully smaller list. The
// decoder — the unit the paper's fault-site arithmetic leans on — must
// shed at least 20% of its fault list.
func TestCollapsedCampaignExactOnRealUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	patterns := randomPatterns(rng, 12)
	for _, u := range units.All() {
		full := gatesim.CampaignCfg(u, patterns, nil, gatesim.Config{})
		cm := analyze.Collapse(u.NL)
		collapsed := gatesim.CampaignCollapsedCfg(u, patterns, cm, nil, gatesim.Config{})

		if !reflect.DeepEqual(full.Class, collapsed.Class) {
			diff := 0
			for i := range full.Class {
				if full.Class[i] != collapsed.Class[i] {
					diff++
					if diff <= 5 {
						f := full.Faults[i]
						t.Errorf("%s fault %d (%v sa%v, rep %v): full=%v collapsed=%v",
							u.Name, i, f.Node, f.Stuck, cm.Rep(f), full.Class[i], collapsed.Class[i])
					}
				}
			}
			t.Fatalf("%s: %d/%d per-fault classes diverge", u.Name, diff, len(full.Class))
		}
		if collapsed.SimulatedSites >= collapsed.TotalSites {
			t.Errorf("%s: collapse simulated %d of %d sites — no reduction",
				u.Name, collapsed.SimulatedSites, collapsed.TotalSites)
		}
		if u.Name == "decoder" && cm.Reduction() < 0.20 {
			t.Errorf("decoder reduction = %.3f, want >= 0.20", cm.Reduction())
		}
	}
}
