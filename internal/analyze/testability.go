// Package analyze is the static analysis the gate-level campaigns run
// before a single cycle is simulated:
//
//   - Reachability (Analyze) — the set of values every net can take under
//     some stimulus and reachable state. A value missing from a net's set
//     proves the opposite stuck-at fault is never activated (the paper's
//     "uncontrollable" class) and, for a net reaching one value only, that
//     stuck-at that value is inert.
//   - Structural fault collapsing (Collapse) — equivalence classes of
//     faults that provably produce identical faulty circuits, so campaigns
//     simulate one representative per class (package gatesim expands the
//     results back to the full fault universe).
//   - Levelization (Levelize) — the topological levels and fanout the
//     event-driven campaign engine sweeps.
package analyze

import (
	"gpufaultsim/internal/netlist"
)

// Reachable-value bits: a net's set holds can0 when the net can be 0 and
// can1 when it can be 1.
const (
	can0 uint8 = 1 << iota
	can1
)

// Testability holds the reachable-value set of every net of one netlist,
// indexed by node.
type Testability struct {
	reach []uint8
}

// Analyze computes every net's reachable-value set by forward constant
// propagation, a least fixpoint: primary inputs reach both values, a
// constant its own, a DFF 0 (every DFF resets to 0) plus whatever its
// next-state net reaches, and a gate every value its boolean function
// yields over the values its inputs reach. The loop sweeps the
// combinational cells in evaluation order, then the DFF updates, until
// nothing grows, which resolves feedback through DFFs.
//
// Gate inputs are combined independently, ignoring any correlation
// between reconvergent nets, so the sets over-approximate what simulation
// can reach: a value missing from a net's set is a sound proof that no
// stimulus or reachable state drives the net to it.
func Analyze(nl *netlist.Netlist) *Testability {
	r := make([]uint8, len(nl.Cells))
	for _, id := range nl.Inputs {
		r[id] = can0 | can1
	}
	for id, c := range nl.Cells {
		if c.Kind == netlist.KConst {
			if c.In[0] == 1 {
				r[id] = can1
			} else {
				r[id] = can0
			}
		}
	}
	for _, q := range nl.DFFs {
		r[q] = can0
	}

	grow := func(id netlist.Node, v uint8) bool {
		if v|r[id] == r[id] {
			return false
		}
		r[id] |= v
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, id := range nl.EvalOrder() {
			if grow(id, gateReach(&nl.Cells[id], r)) {
				changed = true
			}
		}
		for _, q := range nl.DFFs {
			if grow(q, r[nl.Cells[q].In[0]]) {
				changed = true
			}
		}
	}
	return &Testability{reach: r}
}

// gateReach is the set of values combinational cell c can output when
// each input independently takes any value of its set r[input].
func gateReach(c *netlist.Cell, r []uint8) uint8 {
	in := c.In
	a := r[in[0]]
	switch c.Kind {
	case netlist.KBuf:
		return a
	case netlist.KInv:
		return flip(a)
	case netlist.KAnd:
		return and(a, r[in[1]])
	case netlist.KNand:
		return flip(and(a, r[in[1]]))
	case netlist.KOr:
		return flip(and(flip(a), flip(r[in[1]])))
	case netlist.KNor:
		return and(flip(a), flip(r[in[1]]))
	case netlist.KXor:
		b := r[in[1]]
		var y uint8
		if a&b != 0 { // equal inputs
			y |= can0
		}
		if a&flip(b) != 0 { // different inputs
			y |= can1
		}
		return y
	case netlist.KMux: // In: lo, hi, sel
		sel := r[in[2]]
		var y uint8
		if sel&can0 != 0 {
			y |= a
		}
		if sel&can1 != 0 {
			y |= r[in[1]]
		}
		return y
	}
	return 0 // sources keep their seeded sets
}

// flip maps a value set through logical negation.
func flip(s uint8) uint8 { return s&can0<<1 | s&can1>>1 }

// and is the value set of a∧b: 0 when either side reaches 0, 1 when both
// reach 1.
func and(a, b uint8) uint8 { return (a|b)&can0 | a&b&can1 }

// Controllable reports whether net n can take value v under some stimulus
// (by the independence over-approximation; false is a proof it cannot).
func (t *Testability) Controllable(n netlist.Node, v bool) bool {
	if v {
		return t.reach[n]&can1 != 0
	}
	return t.reach[n]&can0 != 0
}

// ConstantValue reports whether net n is structurally constant, and at
// which value.
func (t *Testability) ConstantValue(n netlist.Node) (v, constant bool) {
	switch t.reach[n] {
	case can0:
		return false, true
	case can1:
		return true, true
	}
	return false, false
}
