package analyze_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

// The tests live in an external package because the analyzer must not
// import the simulator (gatesim consumes analyze's CollapseMap through its
// own Collapse interface); cross-checking the two sides needs both.

func TestCollapseInverterChain(t *testing.T) {
	b := netlist.NewBuilder("chain")
	x := b.Input("x")
	n1 := b.Not(x)
	n2 := b.Not(n1)
	n3 := b.Buf(n2)
	b.Output("o", 0, n3)
	nl := b.MustBuild()

	cm := analyze.Collapse(nl)
	// Every stage is single-fanout: all 8 faults collapse to 2 classes.
	if cm.NumClasses() != 2 {
		t.Fatalf("classes = %d, want 2", cm.NumClasses())
	}
	if len(cm.SimFaults()) != 2 {
		t.Fatalf("sim faults = %d, want 2", len(cm.SimFaults()))
	}
	// Polarity flips through the inverters: sa0@x ≡ sa1@n1 ≡ sa0@n2 ≡ sa0@n3.
	r1 := cm.Rep(netlist.Fault{Node: x, Stuck: false})
	r2 := cm.Rep(netlist.Fault{Node: n1, Stuck: true})
	r3 := cm.Rep(netlist.Fault{Node: n3, Stuck: false})
	if r1 != r2 || r1 != r3 {
		t.Fatalf("polarity chain broken: %v %v %v", r1, r2, r3)
	}
	if cm.Reduction() != 0.75 {
		t.Fatalf("reduction = %v, want 0.75", cm.Reduction())
	}
}

func TestCollapseRespectsFanout(t *testing.T) {
	b := netlist.NewBuilder("fan")
	x := b.Input("x")
	y := b.Input("y")
	shared := b.And(x, y) // read twice: must not merge into either reader
	b.Output("o", 0, b.Not(shared))
	b.Output("p", 0, b.Buf(shared))
	nl := b.MustBuild()

	cm := analyze.Collapse(nl)
	f := netlist.Fault{Node: shared, Stuck: true}
	if cm.Rep(f) != f {
		t.Fatalf("multi-fanout net merged: rep(%v) = %v", f, cm.Rep(f))
	}
}

// synthUnit wraps a netlist in a Unit whose inputs are driven from the
// pattern's Word bits, remixed per cycle so DFF state gets exercised.
func synthUnit(nl *netlist.Netlist) *units.Unit {
	return &units.Unit{
		Name:   nl.Name,
		NL:     nl,
		Cycles: 3,
		Drive: func(sim *netlist.Simulator, p units.Pattern, cycle int) {
			v := uint64(p.Word) ^ (uint64(p.PC) * uint64(cycle+1) * 0x9e3779b97f4a7c15)
			for i := range nl.Inputs {
				sim.SetInput(i, v>>(i%64)&1 == 1)
			}
		},
		HangFields: map[string]bool{"h": true},
	}
}

// randomSeqCircuit builds a random sequential circuit: combinational pool
// plus DFFs wired back into it, with both a data output field and a hang
// field.
func randomSeqCircuit(rng *rand.Rand, trial int) *netlist.Netlist {
	b := netlist.NewBuilder("randseq")
	nIn := 2 + rng.Intn(5)
	pool := make([]netlist.Node, 0, 64)
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input("i"))
	}
	// Some trials include constants so the const-strengthened collapsing
	// rules get exercised.
	if trial%2 == 0 {
		pool = append(pool, b.Const(false), b.Const(true))
	}
	nDFF := rng.Intn(4)
	dffs := make([]netlist.Node, nDFF)
	for i := range dffs {
		dffs[i] = b.DFF()
		pool = append(pool, dffs[i])
	}
	pick := func() netlist.Node { return pool[rng.Intn(len(pool))] }
	nGates := 8 + rng.Intn(40)
	for g := 0; g < nGates; g++ {
		x, y, z := pick(), pick(), pick()
		var n netlist.Node
		switch rng.Intn(9) {
		case 0:
			n = b.Not(x)
		case 1:
			n = b.Buf(x)
		case 2:
			n = b.And(x, y)
		case 3:
			n = b.Or(x, y)
		case 4:
			n = b.Xor(x, y)
		case 5:
			n = b.Nand(x, y)
		case 6:
			n = b.Nor(x, y)
		default:
			n = b.Mux(z, x, y)
		}
		pool = append(pool, n)
	}
	for _, q := range dffs {
		b.SetDFF(q, pick())
	}
	for i := 0; i < 3; i++ {
		b.Output("o", i, pick())
	}
	b.Output("h", 0, pick())
	return b.MustBuild()
}

// The central exactness property: a collapsed campaign must classify every
// fault of the full universe identically to the uncollapsed campaign, and
// feed the classifier the same per-fault error-model sets — on random
// sequential circuits with constants, reconvergence and DFF feedback.
func TestCollapsedCampaignExactOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		nl := randomSeqCircuit(rng, trial)
		u := synthUnit(nl)
		patterns := make([]units.Pattern, 16)
		for i := range patterns {
			patterns[i] = units.Pattern{Word: isa.Word(rng.Uint64()), PC: rng.Uint32()}
		}

		colFull := errclass.NewCollector(u.Name)
		full := gatesim.CampaignCfg(u, patterns, colFull, gatesim.Config{})

		cm := analyze.Collapse(nl)
		colC := errclass.NewCollector(u.Name)
		collapsed := gatesim.CampaignCollapsedCfg(u, patterns, cm, colC, gatesim.Config{})

		if !reflect.DeepEqual(full.Class, collapsed.Class) {
			for i := range full.Class {
				if full.Class[i] != collapsed.Class[i] {
					f := full.Faults[i]
					t.Fatalf("trial %d fault %d (%v sa%v, rep %v): full=%v collapsed=%v",
						trial, i, f.Node, f.Stuck, cm.Rep(f), full.Class[i], collapsed.Class[i])
				}
			}
		}
		if full.NumUncontrollable != collapsed.NumUncontrollable ||
			full.NumMasked != collapsed.NumMasked ||
			full.NumHang != collapsed.NumHang ||
			full.NumSWError != collapsed.NumSWError {
			t.Fatalf("trial %d: class totals diverge: full=%+v collapsed=%+v", trial, full, collapsed)
		}
		if !reflect.DeepEqual(colFull.FaultModels, colC.FaultModels) {
			t.Fatalf("trial %d: per-fault error-model sets diverge", trial)
		}
		if collapsed.SimulatedSites > collapsed.TotalSites {
			t.Fatalf("trial %d: simulated %d > total %d",
				trial, collapsed.SimulatedSites, collapsed.TotalSites)
		}
	}
}
