package gatesim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/gatesim/engine"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

// campaignFn is one campaign input shape (plain, collapsed or explicit
// fault list) with the unit and fault universe already bound.
type campaignFn func(patterns []units.Pattern, cl Classifier, cfg Config) *Summary

// soloRun is the outcome of a campaign over exactly one pattern.
type soloRun struct {
	sum *Summary
	cl  *testClassifier
}

// soloRuns runs one single-pattern campaign per pattern. A one-pattern
// campaign has one block of one quad with one live slot, so nothing in it
// depends on how blocks, quads, slots or workers interleave — which makes
// the per-pattern results an oracle for the traversal of any longer list.
func soloRuns(run campaignFn, eng Engine, patterns []units.Pattern) []soloRun {
	out := make([]soloRun, len(patterns))
	for i := range patterns {
		out[i].cl = &testClassifier{}
		out[i].sum = run(patterns[i:i+1], out[i].cl, Config{Engine: eng, Workers: 1})
	}
	return out
}

// serialReference assembles what a campaign over the solos' patterns must
// produce: each fault's model set is the union of its solo sets, the event
// and unmapped counts are the solo counts summed, and each fault's class
// is the most severe verdict any pattern gave it — hang over sw-error over
// hw-masked over uncontrollable.
func serialReference(t *testing.T, solos []soloRun) ([]byte, *testClassifier) {
	t.Helper()
	want := *solos[0].sum
	want.Patterns = len(solos)
	want.Class = make([]FaultClass, len(want.Faults))
	severity := [...]int{Uncontrollable: 0, HWMasked: 1, SWError: 2, Hang: 3}
	cl := &testClassifier{FaultModels: make([]uint16, len(want.Faults))}
	for _, s := range solos {
		for i, c := range s.sum.Class {
			if severity[c] > severity[want.Class[i]] {
				want.Class[i] = c
			}
		}
		for i, set := range s.cl.FaultModels {
			cl.FaultModels[i] |= set
		}
		for m, n := range s.cl.Events {
			cl.Events[m] += n
		}
		cl.Unmapped += s.cl.Unmapped
	}
	want.NumUncontrollable, want.NumMasked, want.NumHang, want.NumSWError = 0, 0, 0, 0
	for _, c := range want.Class {
		switch c {
		case Uncontrollable:
			want.NumUncontrollable++
		case HWMasked:
			want.NumMasked++
		case Hang:
			want.NumHang++
		case SWError:
			want.NumSWError++
		}
	}
	js, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	return js, cl
}

// checkAgainstSolos runs the campaign over patterns at each worker width
// and holds Summary JSON and the dense classification to the reference
// assembled from solos (one per pattern, same order).
func checkAgainstSolos(t *testing.T, label string, run campaignFn, eng Engine, patterns []units.Pattern, solos []soloRun, widths []int) {
	t.Helper()
	wantJS, wantCl := serialReference(t, solos)
	for _, workers := range widths {
		cl := &testClassifier{}
		gotJS, err := json.Marshal(run(patterns, cl, Config{Engine: eng, Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		l := fmt.Sprintf("%s patterns=%d workers=%d", label, len(patterns), workers)
		if !bytes.Equal(wantJS, gotJS) {
			t.Fatalf("%s: Summary JSON diverged from the per-pattern reference\nwant: %s\ngot:  %s", l, wantJS, gotJS)
		}
		if wantCl.Events != cl.Events || wantCl.Unmapped != cl.Unmapped {
			t.Fatalf("%s: counts diverged: want events %v unmapped %d, got events %v unmapped %d",
				l, wantCl.Events, wantCl.Unmapped, cl.Events, cl.Unmapped)
		}
		if !slices.Equal(wantCl.FaultModels, cl.FaultModels) {
			i := 0
			for i < len(cl.FaultModels) && i < len(wantCl.FaultModels) && cl.FaultModels[i] == wantCl.FaultModels[i] {
				i++
			}
			t.Fatalf("%s: model sets diverged first at fault %d of %d/%d", l, i, len(wantCl.FaultModels), len(cl.FaultModels))
		}
	}
}

// reducedPatterns returns n patterns that are distinct to u after its
// Reduce projection, so a campaign over any prefix simulates exactly that
// many patterns and the round boundaries fall where the test aims them.
func reducedPatterns(t *testing.T, u *units.Unit, seed int64, n int) []units.Pattern {
	t.Helper()
	red := u.ReducePatterns(diffPatterns(seed, 2*n))
	if len(red) < n {
		t.Fatalf("%s: only %d distinct reduced patterns, need %d", u.Name, len(red), n)
	}
	return red[:n]
}

// TestShardedCampaignMatchesSerial is the determinism gate for the one
// campaign traversal: for every unit, both engines, with and without
// fault collapsing, campaigns over pattern counts that straddle the quad
// boundary (partial quad, exact quad, quad+1, several quads and a partial
// one) and the golden-block boundary (a block and one) at 1, 2 and 8
// workers must reproduce the serial reference — one solo campaign per
// pattern, merged — byte for byte, Summary JSON and dense classification
// alike. The WSC runs two quads and one pattern.
// TestShardedMixedFaultListMatchesSerial sweeps more counts on a longer
// fault list. Run under -race by scripts/verify.sh, this also proves the
// fan-out itself race-clean.
func TestShardedCampaignMatchesSerial(t *testing.T) {
	widths := []int{1, 2, 8}
	for _, u := range units.All() {
		t.Run(u.Name, func(t *testing.T) {
			for _, eng := range []Engine{EngineEvent, EngineFull} {
				// Budgets are set for the -race run in scripts/verify.sh:
				// WSC on the full engine is ~50x the cost of the small
				// units, and every count repeats at every width.
				counts := []int{1, 3, 4, 5, 18}
				if eng == EngineEvent {
					counts = append(counts, goldenLanes+1)
				}
				if u.Name == "wsc" {
					counts = []int{2*engine.Slots + 1}
					if eng == EngineFull {
						counts = []int{2}
					}
				}
				patterns := reducedPatterns(t, u, 31, counts[len(counts)-1])
				for _, collapse := range []bool{false, true} {
					run := campaignFn(func(p []units.Pattern, cl Classifier, cfg Config) *Summary {
						return CampaignCfg(u, p, cl, cfg)
					})
					if collapse {
						cm := analyze.Collapse(u.NL)
						run = func(p []units.Pattern, cl Classifier, cfg Config) *Summary {
							return CampaignCollapsedCfg(u, p, cm, cl, cfg)
						}
					}
					solos := soloRuns(run, eng, patterns)
					label := fmt.Sprintf("eng=%v collapse=%v", eng, collapse)
					for _, n := range counts {
						checkAgainstSolos(t, label, run, eng, patterns[:n], solos[:n], widths)
					}
				}
			}
		})
	}
}

// TestShardedMixedFaultListMatchesSerial sweeps more pattern counts on a
// longer fault list: the decoder's stuck-at list twice over, so every
// fault has a duplicate in another group. Counts straddle half a block
// (h−1, h, h+1) and cross into a second golden block, just (2h+2) and
// past its middle (block+h+1).
func TestShardedMixedFaultListMatchesSerial(t *testing.T) {
	u := units.Decoder()
	stuck := netlist.FaultList(u.NL)
	faults := append(append([]netlist.Fault(nil), stuck...), stuck...)
	h := goldenLanes / 2
	counts := []int{h - 1, h, h + 1, 2*h + 2, goldenLanes + h + 1}
	patterns := reducedPatterns(t, u, 13, counts[len(counts)-1])

	run := func(p []units.Pattern, cl Classifier, cfg Config) *Summary {
		return CampaignFaultsCfg(u, p, faults, cl, cfg)
	}
	for _, eng := range []Engine{EngineEvent, EngineFull} {
		if eng == EngineFull {
			counts = []int{h + 1} // every item on the dense simulator: -race budget
		}
		solos := soloRuns(run, eng, patterns[:counts[len(counts)-1]])
		for _, n := range counts {
			checkAgainstSolos(t, fmt.Sprintf("mixed eng=%v", eng), run, eng, patterns[:n], solos[:n], []int{1, 2, 8})
		}
	}
}

// TestEventCampaignNeverReachesDenseSimulator: under EngineEvent every
// (pattern, fault group) item runs on the event engine, so the campaign's
// event-cycle count is exactly Cycles × reduced patterns × groups. An item
// that ran on a dense simulator would add nothing to it.
func TestEventCampaignNeverReachesDenseSimulator(t *testing.T) {
	u := units.Decoder()
	cm := analyze.Collapse(u.NL)
	patterns := reducedPatterns(t, u, 23, 2*engine.Slots+1)
	groups := (len(cm.SimFaults()) + 63) / 64
	want := int64(u.Cycles) * int64(len(patterns)) * int64(groups)
	for _, workers := range []int{1, 2} {
		cycles0, patterns0 := telEventCycles.Value(), telPatterns.Value()
		CampaignCollapsedCfg(u, patterns, cm, nil, Config{Engine: EngineEvent, Workers: workers})
		if telPatterns.Value() == patterns0 {
			t.Skip("telemetry disabled; the event-cycle counter does not move")
		}
		if got := telEventCycles.Value() - cycles0; got != want {
			t.Errorf("workers=%d: %d event-engine cycles, want %d (%d cycles x %d patterns x %d groups)",
				workers, got, want, u.Cycles, len(patterns), groups)
		}
	}
}

// TestRoundAndWidthResolution pins the worker count the traversal works
// out from its inputs: it is capped at a golden block's real item space,
// pattern quads × fault groups. engine.Slots (4) patterns are one quad,
// so with a single fault group there is one item and one worker however
// many were asked for — and the campaign itself must of course still be
// right at that shape.
func TestRoundAndWidthResolution(t *testing.T) {
	blockQuads := goldenLanes / engine.Slots
	for _, c := range []struct{ workers, patterns, groups, want int }{
		{8, engine.Slots, 1, 1},
		{8, engine.Slots + 1, 1, 2},
		{8, engine.Slots, 3, 3},
		{8, 1000, 1, 8},
		{64, 1000, 1, blockQuads},
		{8, 1000, 512, 8},
		{1, 1000, 100, 1},
		{0, 1000, 100, runtime.GOMAXPROCS(0)},
		{8, 0, 0, 1},
	} {
		if got := (Config{Workers: c.workers}).shardWidth(c.patterns, c.groups); got != c.want {
			t.Errorf("Workers=%d over %d patterns x %d groups: width %d, want %d", c.workers, c.patterns, c.groups, got, c.want)
		}
	}

	u := units.Decoder()
	patterns := reducedPatterns(t, u, 17, engine.Slots)
	faults := netlist.FaultList(u.NL)[:64]
	run := func(p []units.Pattern, cl Classifier, cfg Config) *Summary {
		return CampaignFaultsCfg(u, p, faults, cl, cfg)
	}
	checkAgainstSolos(t, "one item", run, EngineEvent, patterns, soloRuns(run, EngineEvent, patterns), []int{8})
}

// TestShardedCampaignSteadyStateAllocs pins the pooling work: after the
// per-campaign setup, running more patterns must not allocate more —
// worker simulators, engines, grading scratch and tallies are all created
// once and reused across patterns. The longer run simulates 170 more
// decoder batches, so three allocations per batch would already exceed
// the slack.
func TestShardedCampaignSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	u := units.Decoder()
	short := diffPatterns(5, 4)
	long := diffPatterns(5, 24)
	run := func(pats []units.Pattern) func() {
		return func() {
			CampaignCfg(u, pats, nil, Config{Engine: EngineEvent, Workers: 2})
		}
	}
	base := testing.AllocsPerRun(2, run(short))
	grown := testing.AllocsPerRun(2, run(long))
	// Both runs pay the same per-campaign setup, sized by the fault list
	// and the golden block, not the pattern count; 6x the patterns may add
	// no per-pattern or per-batch term. The slack covers setup that scales
	// with the golden arenas' block capacity (4 vs 24 patterns: ~40
	// allocations) and, under -race at two workers, the race runtime's
	// own bookkeeping (~160 more).
	slack := base*0.25 + 128
	if grown > base+slack {
		t.Fatalf("allocations grew with pattern count: %d patterns -> %.0f allocs, %d patterns -> %.0f allocs (slack %.0f)",
			len(short), base, len(long), grown, slack)
	}
}
