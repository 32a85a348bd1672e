package gatesim

import (
	"math/rand"
	"reflect"
	"testing"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

// The differential harness: the levelized event-driven engine must be
// byte-identical to full re-evaluation — same Summary, same per-fault
// classifications, same sink event stream in the same order — on the
// paper's three units and on randomly generated sequential circuits.
// This is the proof obligation behind making EngineEvent the default.

// recordedEvent is one sink callback, in arrival order.
type recordedEvent struct {
	Kind     string // "corruption" | "hang"
	FaultIdx int
	Pattern  units.Pattern
	Field    string
	Golden   uint64
	Faulty   uint64
}

// recordingSink captures the exact event stream of a campaign.
type recordingSink struct {
	events []recordedEvent
}

func (r *recordingSink) Corruption(faultIdx int, p units.Pattern, field string, golden, faulty uint64) {
	r.events = append(r.events, recordedEvent{"corruption", faultIdx, p, field, golden, faulty})
}

func (r *recordingSink) Hang(faultIdx int, p units.Pattern, field string) {
	r.events = append(r.events, recordedEvent{Kind: "hang", FaultIdx: faultIdx, Pattern: p, Field: field})
}

// diffEngines runs the same campaign on both engines and fails the test on
// any divergence. It returns the full-engine summary for further checks.
func diffEngines(t *testing.T, u *units.Unit, patterns []units.Pattern, cm Collapse) *Summary {
	t.Helper()
	run := func(eng Engine) (*Summary, []recordedEvent) {
		sink := &recordingSink{}
		var sum *Summary
		if cm != nil {
			sum = CampaignCollapsedCfg(u, patterns, cm, sink, Config{Engine: eng})
		} else {
			sum = CampaignCfg(u, patterns, sink, Config{Engine: eng})
		}
		return sum, sink.events
	}
	fullSum, fullEvents := run(EngineFull)
	eventSum, eventEvents := run(EngineEvent)

	if !reflect.DeepEqual(fullSum, eventSum) {
		t.Errorf("%s: summaries diverge:\n full: %+v\nevent: %+v", u.Name, fullSum, eventSum)
	}
	if len(fullEvents) != len(eventEvents) {
		t.Fatalf("%s: event streams diverge: full=%d events, event=%d events",
			u.Name, len(fullEvents), len(eventEvents))
	}
	for i := range fullEvents {
		if fullEvents[i] != eventEvents[i] {
			t.Fatalf("%s: event %d diverges:\n full: %+v\nevent: %+v",
				u.Name, i, fullEvents[i], eventEvents[i])
		}
	}
	return fullSum
}

// diffPatterns builds a deterministic, varied pattern set covering the
// stimulus space the three units project onto.
func diffPatterns(seed int64, n int) []units.Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]units.Pattern, n)
	for i := range out {
		out[i] = units.Pattern{
			Word:         isa.Word(rng.Uint64()),
			PC:           rng.Uint32() & 0xFFFF,
			WarpID:       rng.Uint32() & 0x1F,
			ActiveMask:   rng.Uint32(),
			CTAID:        rng.Uint32() & 0xF,
			BranchTaken:  rng.Intn(2) == 1,
			BranchTarget: uint16(rng.Uint32()),
			WarpValid:    rng.Uint32(),
			WarpReady:    rng.Uint32(),
			WarpBarrier:  rng.Uint32(),
		}
	}
	return out
}

// TestEventEngineMatchesFullOnUnits holds the event engine byte-identical
// to full evaluation on the WSC, fetch and decoder campaigns, both
// uncollapsed and through the static fault collapser.
func TestEventEngineMatchesFullOnUnits(t *testing.T) {
	patterns := diffPatterns(11, 24)
	for _, u := range units.All() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			sum := diffEngines(t, u, patterns, nil)
			if sum.NumSWError == 0 {
				t.Errorf("%s: campaign excited no SW errors; differential coverage too weak", u.Name)
			}
			diffEngines(t, u, patterns, analyze.Collapse(u.NL))
		})
	}
}

// randomUnit wraps a random netlist in the Unit stimulus protocol: inputs
// are driven from a pattern-and-cycle keyed bitstream (a pure function of
// (p, cycle), as the campaign requires), and the "flow" field is declared
// hang-critical so both classification paths run.
func randomUnit(rng *rand.Rand, spec netlist.RandomSpec, cycles int) *units.Unit {
	nl := netlist.RandomNetlist(rng, spec)
	nIn := len(nl.Inputs)
	u := &units.Unit{
		Name:       "random",
		NL:         nl,
		Cycles:     cycles,
		HangFields: map[string]bool{"flow": true},
	}
	u.Drive = func(sim *netlist.Simulator, p units.Pattern, cycle int) {
		bits := mix64(uint64(p.Word) ^ uint64(p.PC)<<32 ^ uint64(cycle)*0x9E3779B97F4A7C15)
		for i := 0; i < nIn; i++ {
			if i%64 == 0 && i > 0 {
				bits = mix64(bits)
			}
			sim.SetInput(i, bits>>(i%64)&1 == 1)
		}
	}
	return u
}

// mix64 is splitmix64's finalizer: a cheap bijective bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TestEventEngineMatchesFullOnRandomNetlists sweeps random sequential
// circuits — varying gate counts, state depths and feedback shapes — and
// holds both engines byte-identical on each, uncollapsed and collapsed.
func TestEventEngineMatchesFullOnRandomNetlists(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		spec := netlist.RandomSpec{
			Inputs:  1 + rng.Intn(12),
			Gates:   5 + rng.Intn(120),
			DFFs:    rng.Intn(9),
			Outputs: 1 + rng.Intn(10),
		}
		cycles := 1 + rng.Intn(4)
		u := randomUnit(rng, spec, cycles)
		patterns := diffPatterns(int64(1000+trial), 12)
		diffEngines(t, u, patterns, nil)
		diffEngines(t, u, patterns, analyze.Collapse(u.NL))
	}
}
