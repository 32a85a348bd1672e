package gatesim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/gatesim/engine"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

// campaignFn is one campaign input shape (plain, collapsed or explicit
// fault list) with the unit and fault universe already bound.
type campaignFn func(patterns []units.Pattern, sink EventSink, cfg Config) *Summary

// soloRun is the outcome of a campaign over exactly one pattern.
type soloRun struct {
	sum    *Summary
	events []recordedEvent
}

// soloRuns runs one single-pattern campaign per pattern. A one-pattern
// campaign has one round of one quad with one live slot, so nothing in it
// depends on how rounds, quads, slots or workers interleave — which makes
// the per-pattern results an oracle for the traversal of any longer list.
func soloRuns(run campaignFn, eng Engine, patterns []units.Pattern) []soloRun {
	out := make([]soloRun, len(patterns))
	for i := range patterns {
		sink := &recordingSink{}
		out[i].sum = run(patterns[i:i+1], sink, Config{Engine: eng, Workers: 1})
		out[i].events = sink.events
	}
	return out
}

// serialReference assembles what a campaign over the solos' patterns must
// produce: the sink stream is the solo streams concatenated in pattern
// order, minus Hang callbacks for faults already reported hung (the sink
// contract is one Hang per fault), and each fault's class is the most
// severe verdict any pattern gave it — hang over sw-error over hw-masked
// over uncontrollable.
func serialReference(t *testing.T, solos []soloRun) ([]byte, []recordedEvent) {
	t.Helper()
	want := *solos[0].sum
	want.Patterns = len(solos)
	want.Class = make([]FaultClass, len(want.Faults))
	severity := [...]int{Uncontrollable: 0, HWMasked: 1, SWError: 2, Hang: 3}
	var events []recordedEvent
	hung := map[int]bool{}
	for _, s := range solos {
		for i, c := range s.sum.Class {
			if severity[c] > severity[want.Class[i]] {
				want.Class[i] = c
			}
		}
		for _, e := range s.events {
			if e.Kind == "hang" {
				if hung[e.FaultIdx] {
					continue
				}
				hung[e.FaultIdx] = true
			}
			events = append(events, e)
		}
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
	return js, events
}

// checkAgainstSolos runs the campaign over patterns at each worker width
// and holds Summary JSON and the exact sink event sequence to the
// reference assembled from solos (one per pattern, same order).
func checkAgainstSolos(t *testing.T, label string, run campaignFn, eng Engine, patterns []units.Pattern, solos []soloRun, widths []int) {
	t.Helper()
	wantJS, wantEv := serialReference(t, solos)
	for _, workers := range widths {
		sink := &recordingSink{}
		gotJS, err := json.Marshal(run(patterns, sink, Config{Engine: eng, Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		l := fmt.Sprintf("%s patterns=%d workers=%d", label, len(patterns), workers)
		if !bytes.Equal(wantJS, gotJS) {
			t.Fatalf("%s: Summary JSON diverged from the per-pattern reference\nwant: %s\ngot:  %s", l, wantJS, gotJS)
		}
		if len(wantEv) != len(sink.events) {
			t.Fatalf("%s: event count diverged: want %d, got %d", l, len(wantEv), len(sink.events))
		}
		for i := range wantEv {
			if wantEv[i] != sink.events[i] {
				t.Fatalf("%s: event %d diverged\nwant: %+v\ngot:  %+v", l, i, wantEv[i], sink.events[i])
			}
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
// pattern, concatenated — byte for byte, Summary JSON and sink event
// stream alike. On fetch and decoder a round is the whole block; the WSC
// has enough fault groups for shorter rounds, and runs one pattern past
// its first. TestShardedMixedFaultListMatchesSerial sweeps the round
// boundaries. Run under -race by scripts/verify.sh, this also proves the
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
					counts = []int{roundQuads((u.NL.NumFaults()+63)/64)*engine.Slots + 1}
					if eng == EngineFull {
						counts = []int{2}
					}
				}
				patterns := reducedPatterns(t, u, 31, counts[len(counts)-1])
				for _, collapse := range []bool{false, true} {
					run := campaignFn(func(p []units.Pattern, sink EventSink, cfg Config) *Summary {
						return CampaignCfg(u, p, sink, cfg)
					})
					if collapse {
						cm := analyze.Collapse(u.NL)
						run = func(p []units.Pattern, sink EventSink, cfg Config) *Summary {
							return CampaignCollapsedCfg(u, p, cm, sink, cfg)
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

// TestShardedMixedFaultListMatchesSerial sweeps the round boundaries. The
// fault list is the decoder's stuck-at list twice over — enough 64-fault
// groups for rounds shorter than the golden block. Pattern counts
// straddle the round boundary (round−1, round, round+1), span two rounds
// and a partial third, and cross into a second golden block mid-round.
func TestShardedMixedFaultListMatchesSerial(t *testing.T) {
	u := units.Decoder()
	stuck := netlist.FaultList(u.NL)
	faults := append(append([]netlist.Fault(nil), stuck...), stuck...)
	r := roundQuads((len(faults)+63)/64) * engine.Slots
	if r >= goldenLanes {
		t.Fatalf("%d faults give %d-pattern rounds; the sweep needs rounds shorter than the %d-pattern block", len(faults), r, goldenLanes)
	}
	counts := []int{r - 1, r, r + 1, 2*r + 2, goldenLanes + r + 1}
	patterns := reducedPatterns(t, u, 13, counts[len(counts)-1])

	run := func(p []units.Pattern, sink EventSink, cfg Config) *Summary {
		return CampaignFaultsCfg(u, p, faults, sink, cfg)
	}
	for _, eng := range []Engine{EngineEvent, EngineFull} {
		if eng == EngineFull {
			counts = []int{r + 1} // every item on the dense simulator: -race budget
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

// TestRoundAndWidthResolution pins the two sizes the traversal works out
// from its inputs. A round is the smallest power-of-two quad count that
// reaches roundItems items, at most the golden block. The worker count is
// capped at the round's real item space, pattern quads × fault groups:
// engine.Slots (4) patterns are one quad, so with a single fault group
// there is one item and one worker however many were asked for — and the
// campaign itself must of course still be right at that shape.
func TestRoundAndWidthResolution(t *testing.T) {
	blockQuads := goldenLanes / engine.Slots
	for _, c := range []struct{ groups, want int }{
		{0, blockQuads}, {1, blockQuads}, {roundItems / blockQuads, blockQuads},
		{roundItems/blockQuads + 1, blockQuads}, {roundItems / 2, 2}, {roundItems - 1, 2},
		{roundItems, 1}, {10 * roundItems, 1},
	} {
		if got := roundQuads(c.groups); got != c.want {
			t.Errorf("roundQuads(%d) = %d, want %d", c.groups, got, c.want)
		}
	}
	for _, c := range []struct{ workers, patterns, groups, want int }{
		{8, engine.Slots, 1, 1},
		{8, engine.Slots + 1, 1, 2},
		{8, engine.Slots, 3, 3},
		{8, 1000, 1, 8},
		{64, 1000, 1, blockQuads},
		{8, 1000, roundItems, 8},
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
	run := func(p []units.Pattern, sink EventSink, cfg Config) *Summary {
		return CampaignFaultsCfg(u, p, faults, sink, cfg)
	}
	checkAgainstSolos(t, "one item", run, EngineEvent, patterns, soloRuns(run, EngineEvent, patterns), []int{8})
}

// TestShardedCampaignSteadyStateAllocs pins the pooling work: after the
// per-campaign setup, running more patterns must not allocate more —
// worker simulators, engines, grading scratch and event buffers are all
// created once and reused across patterns. The decoder runs dozens of
// batches per pattern, so even one allocation per batch would blow the
// slack by orders of magnitude.
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
	// Both runs pay the same per-campaign setup; 6x the patterns may only
	// add a small constant (event buffers growing once to their
	// high-water mark), never a per-pattern or per-batch term.
	slack := base*0.25 + 128
	if grown > base+slack {
		t.Fatalf("allocations grew with pattern count: %d patterns -> %.0f allocs, %d patterns -> %.0f allocs (slack %.0f)",
			len(short), base, len(long), grown, slack)
	}
}
