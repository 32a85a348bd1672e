package gatesim

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

// The differential harness: the levelized event-driven engine must be
// byte-identical to full re-evaluation — same Summary, same per-fault
// error-model sets, same event and unmapped counts — on the paper's three
// units and on randomly generated sequential circuits. This is the proof
// obligation behind making EngineEvent the default.

// testClassifier gives every non-hang field one of the three rule kinds —
// constant, value-dependent or unmapped — picked by a hash of its name
// and salt, so campaigns exercise all three on any netlist, and keeps the
// classification the campaign hands back. (The paper's rules live in
// errclass, which imports this package.)
type testClassifier struct {
	salt        uint32
	FaultModels []uint16
	Events      [errmodel.Count]int
	Unmapped    int
}

func (c *testClassifier) Rule(field string) Rule {
	h := fnv.New32a()
	h.Write([]byte(field))
	k := h.Sum32() + c.salt
	switch k % 3 {
	case 0:
		return Rule{Mapped: true, Model: errmodel.Model(k / 3 % uint32(errmodel.Count))}
	case 1:
		return Rule{Mapped: true, Value: func(p units.Pattern, golden, faulty uint64) errmodel.Model {
			return errmodel.Model((uint64(p.Word) ^ golden*3 ^ faulty*7) % uint64(errmodel.Count))
		}}
	}
	return Rule{}
}

func (c *testClassifier) Absorb(faultModels []uint16, events [errmodel.Count]int, unmapped int) {
	c.FaultModels, c.Events, c.Unmapped = faultModels, events, unmapped
}

// diffEngines runs the same campaign on both engines and fails the test on
// any divergence. It returns the full engine's summary and classification
// for further checks.
func diffEngines(t *testing.T, u *units.Unit, patterns []units.Pattern, cm Collapse, salt uint32) (*Summary, *testClassifier) {
	t.Helper()
	run := func(eng Engine) (*Summary, *testClassifier) {
		cl := &testClassifier{salt: salt}
		var sum *Summary
		if cm != nil {
			sum = CampaignCollapsedCfg(u, patterns, cm, cl, Config{Engine: eng})
		} else {
			sum = CampaignCfg(u, patterns, cl, Config{Engine: eng})
		}
		return sum, cl
	}
	fullSum, fullCl := run(EngineFull)
	eventSum, eventCl := run(EngineEvent)

	if !reflect.DeepEqual(fullSum, eventSum) {
		t.Errorf("%s: summaries diverge:\n full: %+v\nevent: %+v", u.Name, fullSum, eventSum)
	}
	if !reflect.DeepEqual(fullCl, eventCl) {
		t.Fatalf("%s: classifications diverge:\n full: events %v unmapped %d\nevent: events %v unmapped %d",
			u.Name, fullCl.Events, fullCl.Unmapped, eventCl.Events, eventCl.Unmapped)
	}
	return fullSum, fullCl
}

// diffCollapse runs diffEngines uncollapsed and through the static fault
// collapser, and holds the collapsed classification — expanded to the
// members, counts weighted by class size — to the uncollapsed one.
func diffCollapse(t *testing.T, u *units.Unit, patterns []units.Pattern, salt uint32) *Summary {
	t.Helper()
	sum, plain := diffEngines(t, u, patterns, nil, salt)
	_, collapsed := diffEngines(t, u, patterns, analyze.Collapse(u.NL), salt)
	if !reflect.DeepEqual(plain, collapsed) {
		t.Fatalf("%s: collapsed classification diverges:\n    plain: events %v unmapped %d\ncollapsed: events %v unmapped %d",
			u.Name, plain.Events, plain.Unmapped, collapsed.Events, collapsed.Unmapped)
	}
	return sum
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
// uncollapsed and through the static fault collapser, and the collapsed
// classification to the uncollapsed one.
func TestEventEngineMatchesFullOnUnits(t *testing.T) {
	patterns := diffPatterns(11, 24)
	for _, u := range units.All() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			sum := diffCollapse(t, u, patterns, 0)
			if sum.NumSWError == 0 {
				t.Errorf("%s: campaign excited no SW errors; differential coverage too weak", u.Name)
			}
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
// holds both engines byte-identical on each, uncollapsed and collapsed,
// and the two classifications equal; the salt varies which rule kind the
// data field gets.
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
		diffCollapse(t, u, patterns, uint32(trial))
	}
}
