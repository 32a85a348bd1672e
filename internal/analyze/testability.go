// Package analyze is the static-analysis layer over the gate-level
// substrate (package netlist) and the kernel assembler (package kasm).
//
// It decides, before a single cycle is simulated, the properties that
// dominate the cost of the paper's gate-level stuck-at campaigns:
//
//   - SCOAP-style testability — 0/1-controllability and observability for
//     every net, classifying each stuck-at fault as statically
//     uncontrollable (the paper's "uncontrollable" class), statically
//     unobservable (predicted HW-masked) or testable.
//   - Structural fault collapsing — equivalence classes of faults that
//     provably produce identical faulty circuits, so campaigns simulate
//     one representative per class (package gatesim expands the results
//     back to the full fault universe).
//   - Structural lint — non-panicking diagnostics and shape statistics
//     for a netlist (dangling nets, dead logic, fanout and cone depth).
//   - Kernel-assembly analysis — control-flow, def-use and liveness over
//     kasm programs, predicting which decoder-field corruptions are
//     software-masked.
package analyze

import (
	"fmt"

	"gpufaultsim/internal/netlist"
)

// Cost is a SCOAP controllability/observability value. Inf means the goal
// is structurally impossible (the net cannot take the value / no
// sensitizable path to an output exists).
type Cost int64

// Inf is the unreachable-cost sentinel. Additions saturate at Inf.
const Inf Cost = 1 << 40

// IsInf reports whether the cost is the unreachable sentinel.
func (c Cost) IsInf() bool { return c >= Inf }

func (c Cost) String() string {
	if c.IsInf() {
		return "inf"
	}
	return fmt.Sprintf("%d", int64(c))
}

// addC is saturating addition over costs.
func addC(a, b Cost) Cost {
	if a.IsInf() || b.IsInf() {
		return Inf
	}
	return a + b
}

func minC(a, b Cost) Cost {
	if a < b {
		return a
	}
	return b
}

// StaticClass is the analyzer's verdict on one stuck-at fault.
type StaticClass uint8

const (
	// StaticTestable faults can be activated and have a structurally
	// sensitizable path to a primary output.
	StaticTestable StaticClass = iota
	// StaticUncontrollable faults sit on nets that can never take the
	// opposite of the stuck value: no stimulus activates them. They map
	// exactly onto the campaign's "uncontrollable" class.
	StaticUncontrollable
	// StaticUnobservable faults activate but have no sensitizable path to
	// any primary output: the campaign observes them as HW-masked.
	StaticUnobservable
)

var staticClassNames = [...]string{"testable", "uncontrollable", "unobservable"}

func (c StaticClass) String() string {
	if int(c) < len(staticClassNames) {
		return staticClassNames[c]
	}
	return fmt.Sprintf("StaticClass(%d)", uint8(c))
}

// Testability holds the per-net SCOAP metrics of one netlist. CC0[n] and
// CC1[n] are the costs of driving net n to 0/1 from the primary inputs
// (sequential depth through DFFs folded in: each DFF crossing adds one);
// CO[n] is the cost of propagating a change at n to any primary output.
// An Inf entry means structurally impossible — the exact properties the
// campaign's uncontrollable and HW-masked classes measure dynamically.
type Testability struct {
	nl  *netlist.Netlist
	CC0 []Cost
	CC1 []Cost
	CO  []Cost
}

// Analyze computes the SCOAP metrics for a netlist.
//
// Controllability is a least fixpoint: primary inputs cost 1 for either
// value, constants cost 1 for their value only, gates combine their input
// costs (AND: CC1 = CC1(a)+CC1(b)+1, CC0 = min(CC0(a),CC0(b))+1, and so
// on), and a DFF costs its D input plus one clock — with CC0 capped at 1
// because every DFF resets to 0. Observability runs the dual backward
// fixpoint from the primary outputs (CO = 0), charging side inputs their
// non-controlling-value controllability. Both loops sweep in evaluation
// order and iterate until stable, which resolves feedback through DFFs.
//
// The Inf/finite split is exact for the independence over-approximation of
// reachable values: CC_v(n) is finite iff value v is in the per-net
// reachable set computed by forward constant propagation. That makes
// "CC_v(n) = Inf" a sound proof that a stuck-at-(¬v) fault at n is never
// activated by any stimulus or reachable state.
func Analyze(nl *netlist.Netlist) *Testability {
	n := len(nl.Cells)
	t := &Testability{
		nl:  nl,
		CC0: make([]Cost, n),
		CC1: make([]Cost, n),
		CO:  make([]Cost, n),
	}
	for i := 0; i < n; i++ {
		t.CC0[i], t.CC1[i], t.CO[i] = Inf, Inf, Inf
	}

	// Sources.
	for _, id := range nl.Inputs {
		t.CC0[id], t.CC1[id] = 1, 1
	}
	for id, c := range nl.Cells {
		if c.Kind == netlist.KConst {
			if c.In[0] == 1 {
				t.CC1[id] = 1
			} else {
				t.CC0[id] = 1
			}
		}
	}
	for _, q := range nl.DFFs {
		t.CC0[q] = 1 // reset state
	}

	// Forward fixpoint over combinational sweeps + DFF state updates.
	for changed := true; changed; {
		changed = false
		for _, id := range nl.EvalOrder() {
			cc0, cc1 := t.controllability(id)
			if cc0 < t.CC0[id] {
				t.CC0[id] = cc0
				changed = true
			}
			if cc1 < t.CC1[id] {
				t.CC1[id] = cc1
				changed = true
			}
		}
		for _, q := range nl.DFFs {
			d := nl.Cells[q].In[0]
			if cc0 := minC(1, addC(t.CC0[d], 1)); cc0 < t.CC0[q] {
				t.CC0[q] = cc0
				changed = true
			}
			if cc1 := addC(t.CC1[d], 1); cc1 < t.CC1[q] {
				t.CC1[q] = cc1
				changed = true
			}
		}
	}

	// Backward fixpoint for observability.
	for _, o := range nl.Outputs {
		t.CO[o.Node] = 0
	}
	order := nl.EvalOrder()
	for changed := true; changed; {
		changed = false
		for i := len(order) - 1; i >= 0; i-- {
			if t.propagateCO(order[i]) {
				changed = true
			}
		}
		for _, q := range nl.DFFs {
			d := nl.Cells[q].In[0]
			if co := addC(t.CO[q], 1); co < t.CO[d] {
				t.CO[d] = co
				changed = true
			}
		}
	}
	return t
}

// controllability computes the cost pair of one combinational cell from
// its inputs' current costs.
func (t *Testability) controllability(id netlist.Node) (cc0, cc1 Cost) {
	c := &t.nl.Cells[id]
	in := c.In
	switch c.Kind {
	case netlist.KBuf:
		return addC(t.CC0[in[0]], 1), addC(t.CC1[in[0]], 1)
	case netlist.KInv:
		return addC(t.CC1[in[0]], 1), addC(t.CC0[in[0]], 1)
	case netlist.KAnd:
		return addC(minC(t.CC0[in[0]], t.CC0[in[1]]), 1),
			addC(addC(t.CC1[in[0]], t.CC1[in[1]]), 1)
	case netlist.KNand:
		return addC(addC(t.CC1[in[0]], t.CC1[in[1]]), 1),
			addC(minC(t.CC0[in[0]], t.CC0[in[1]]), 1)
	case netlist.KOr:
		return addC(addC(t.CC0[in[0]], t.CC0[in[1]]), 1),
			addC(minC(t.CC1[in[0]], t.CC1[in[1]]), 1)
	case netlist.KNor:
		return addC(minC(t.CC1[in[0]], t.CC1[in[1]]), 1),
			addC(addC(t.CC0[in[0]], t.CC0[in[1]]), 1)
	case netlist.KXor:
		a0, a1 := t.CC0[in[0]], t.CC1[in[0]]
		b0, b1 := t.CC0[in[1]], t.CC1[in[1]]
		return addC(minC(addC(a0, b0), addC(a1, b1)), 1),
			addC(minC(addC(a0, b1), addC(a1, b0)), 1)
	case netlist.KMux: // In: lo, hi, sel
		lo0, lo1 := t.CC0[in[0]], t.CC1[in[0]]
		hi0, hi1 := t.CC0[in[1]], t.CC1[in[1]]
		s0, s1 := t.CC0[in[2]], t.CC1[in[2]]
		return addC(minC(addC(s0, lo0), addC(s1, hi0)), 1),
			addC(minC(addC(s0, lo1), addC(s1, hi1)), 1)
	}
	return t.CC0[id], t.CC1[id] // sources keep their seeded costs
}

// propagateCO relaxes the observability of cell id's inputs through id.
// Reports whether anything improved.
func (t *Testability) propagateCO(id netlist.Node) bool {
	c := &t.nl.Cells[id]
	in := c.In
	co := t.CO[id]
	improved := false
	relax := func(n netlist.Node, cost Cost) {
		if cost < t.CO[n] {
			t.CO[n] = cost
			improved = true
		}
	}
	switch c.Kind {
	case netlist.KBuf, netlist.KInv:
		relax(in[0], addC(co, 1))
	case netlist.KAnd, netlist.KNand:
		relax(in[0], addC(addC(co, t.CC1[in[1]]), 1))
		relax(in[1], addC(addC(co, t.CC1[in[0]]), 1))
	case netlist.KOr, netlist.KNor:
		relax(in[0], addC(addC(co, t.CC0[in[1]]), 1))
		relax(in[1], addC(addC(co, t.CC0[in[0]]), 1))
	case netlist.KXor:
		relax(in[0], addC(addC(co, minC(t.CC0[in[1]], t.CC1[in[1]])), 1))
		relax(in[1], addC(addC(co, minC(t.CC0[in[0]], t.CC1[in[0]])), 1))
	case netlist.KMux: // In: lo, hi, sel
		relax(in[0], addC(addC(co, t.CC0[in[2]]), 1))
		relax(in[1], addC(addC(co, t.CC1[in[2]]), 1))
		// sel is observed when lo and hi differ.
		diff := minC(addC(t.CC0[in[0]], t.CC1[in[1]]), addC(t.CC1[in[0]], t.CC0[in[1]]))
		relax(in[2], addC(addC(co, diff), 1))
	}
	return improved
}

// Controllable reports whether net n can take value v under some stimulus
// (by the independence over-approximation; false is a proof it cannot).
func (t *Testability) Controllable(n netlist.Node, v bool) bool {
	if v {
		return !t.CC1[n].IsInf()
	}
	return !t.CC0[n].IsInf()
}

// ConstantValue reports whether net n is structurally constant, and at
// which value.
func (t *Testability) ConstantValue(n netlist.Node) (v, constant bool) {
	c0, c1 := t.Controllable(n, false), t.Controllable(n, true)
	switch {
	case c0 && !c1:
		return false, true
	case c1 && !c0:
		return true, true
	}
	return false, false
}

// ClassifyFault grades one stuck-at fault.
func (t *Testability) ClassifyFault(f netlist.Fault) StaticClass {
	if !t.Controllable(f.Node, !f.Stuck) {
		return StaticUncontrollable
	}
	if t.CO[f.Node].IsInf() {
		return StaticUnobservable
	}
	return StaticTestable
}

// ClassCounts tallies the static classes over a fault list.
func (t *Testability) ClassCounts(faults []netlist.Fault) (uncontrollable, unobservable, testable int) {
	for _, f := range faults {
		switch t.ClassifyFault(f) {
		case StaticUncontrollable:
			uncontrollable++
		case StaticUnobservable:
			unobservable++
		default:
			testable++
		}
	}
	return
}
