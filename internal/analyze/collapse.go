package analyze

import (
	"gpufaultsim/internal/netlist"
)

// Fault collapsing.
//
// Two stuck-at faults are merged only when their faulty circuits are
// provably identical as observed from every primary output and DFF — a
// stronger condition than the classic detection-equivalence used by ATPG
// fault collapsing, because the campaign's four-way classification also
// depends on per-fault activation. The rules therefore require the
// collapsed net to have a single reader (so forcing it is invisible
// outside the gate that consumes it) and rely only on controlling values,
// or on side inputs proven structurally constant:
//
//	BUF  y=a        : sa0@a ≡ sa0@y,  sa1@a ≡ sa1@y
//	INV  y=¬a       : sa0@a ≡ sa1@y,  sa1@a ≡ sa0@y
//	AND  y=a∧b      : sa0@a ≡ sa0@y   (0 is controlling)
//	NAND y=¬(a∧b)   : sa0@a ≡ sa1@y
//	OR   y=a∨b      : sa1@a ≡ sa1@y
//	NOR  y=¬(a∨b)   : sa1@a ≡ sa0@y
//	XOR with a structurally constant side acts as BUF/INV
//	AND/OR/NAND/NOR with a constant non-controlling side act as BUF/INV
//	MUX with a constant select acts as BUF of the selected input;
//	MUX with constant data legs (0,1)/(1,0) acts as BUF/INV of the select
//
// Activation stays per-fault: gatesim computes it for the whole fault
// universe from the golden pass alone, so expansion back from a class
// representative is exact (see gatesim.CampaignCollapsed).
//
// On top of the equivalence classes, any class containing a fault whose
// stuck value equals its net's only reachable value is statically inert:
// forcing the net changes nothing, so the entire class's faulty circuit
// is the golden circuit and needs no simulation at all.

// CollapseMap is the collapsed view of a netlist's stuck-at fault
// universe. Fault ids follow netlist.FaultList order: id = 2*node + 1 for
// stuck-at-1, 2*node for stuck-at-0.
type CollapseMap struct {
	nl      *netlist.Netlist
	rep     []int32 // fault id -> canonical (smallest) id of its class
	sim     []netlist.Fault
	simIdx  []int32 // fault id -> index into sim, or -1 when statically inert
	classes int
	inert   int
}

// faultID maps a stuck-at fault to its dense id.
func faultID(n netlist.Node, stuck bool) int {
	id := 2 * int(n)
	if stuck {
		id++
	}
	return id
}

func idFault(id int) netlist.Fault {
	return netlist.Fault{Node: netlist.Node(id / 2), Stuck: id%2 == 1}
}

// Collapse builds the collapsed fault map of a netlist from its
// structure and its reachable-value sets (Analyze).
func Collapse(nl *netlist.Netlist) *CollapseMap {
	t := Analyze(nl)
	n := len(nl.Cells)
	fanout := fanoutCounts(nl)

	// Union-find over fault ids.
	parent := make([]int32, 2*n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra == rb {
			return
		}
		if ra < rb { // keep the smallest id as root for determinism
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}

	// singleReader reports whether net a is read exactly once (by the gate
	// currently being considered) and is not a primary output.
	singleReader := func(a netlist.Node) bool { return fanout[a] == 1 }

	// linkBuf/linkInv merge a driver's faults with the gate output's,
	// buffer- or inverter-wise.
	linkBuf := func(a netlist.Node, y int) {
		union(faultID(a, false), faultID(netlist.Node(y), false))
		union(faultID(a, true), faultID(netlist.Node(y), true))
	}
	linkInv := func(a netlist.Node, y int) {
		union(faultID(a, false), faultID(netlist.Node(y), true))
		union(faultID(a, true), faultID(netlist.Node(y), false))
	}
	// linkControlled merges (a, v) with (y, w): forcing a to its
	// controlling value v forces y to w regardless of the other inputs.
	linkControlled := func(a netlist.Node, v bool, y int, w bool) {
		union(faultID(a, v), faultID(netlist.Node(y), w))
	}
	// constAt reports whether net b is structurally constant at value v.
	constAt := func(b netlist.Node, v bool) bool {
		val, ok := t.ConstantValue(b)
		return ok && val == v
	}
	// safeForce reports whether forcing net a to value v keeps it inside
	// its reachable-value set — the condition under which the
	// constant-side rules remain sound: a side is proven constant only
	// over reachable values, and an unreachable value on a could reach it
	// through reconvergence or DFF feedback.
	safeForce := func(a netlist.Node, v bool) bool { return t.Controllable(a, v) }

	for y := 0; y < n; y++ {
		c := &nl.Cells[y]
		in := c.In
		switch c.Kind {
		case netlist.KBuf:
			if singleReader(in[0]) {
				linkBuf(in[0], y)
			}
		case netlist.KInv:
			if singleReader(in[0]) {
				linkInv(in[0], y)
			}
		case netlist.KAnd, netlist.KNand, netlist.KOr, netlist.KNor:
			inverted := c.Kind == netlist.KNand || c.Kind == netlist.KNor
			ctrl := c.Kind == netlist.KOr || c.Kind == netlist.KNor // controlling input value
			forced := ctrl != inverted                              // output when an input is at ctrl
			for i := 0; i < 2; i++ {
				a, b := in[i], in[1-i]
				if !singleReader(a) {
					continue
				}
				// Controlling-value rule: unconditional.
				linkControlled(a, ctrl, y, forced)
				// With the other side constant at the non-controlling
				// value the gate degenerates to BUF/INV of a.
				if constAt(b, !ctrl) && safeForce(a, !ctrl) {
					if inverted {
						linkInv(a, y)
					} else {
						linkBuf(a, y)
					}
				}
			}
		case netlist.KXor:
			for i := 0; i < 2; i++ {
				a, b := in[i], in[1-i]
				if !singleReader(a) {
					continue
				}
				if val, ok := t.ConstantValue(b); ok {
					if !safeForce(a, false) || !safeForce(a, true) {
						continue
					}
					if val {
						linkInv(a, y)
					} else {
						linkBuf(a, y)
					}
				}
			}
		case netlist.KMux: // In: lo, hi, sel
			lo, hi, sel := in[0], in[1], in[2]
			if val, ok := t.ConstantValue(sel); ok {
				leg := lo
				if val {
					leg = hi
				}
				if singleReader(leg) && safeForce(leg, false) && safeForce(leg, true) {
					linkBuf(leg, y)
				}
			}
			loV, loConst := t.ConstantValue(lo)
			hiV, hiConst := t.ConstantValue(hi)
			if loConst && hiConst && loV != hiV && singleReader(sel) &&
				safeForce(sel, false) && safeForce(sel, true) {
				if hiV { // y = sel
					linkBuf(sel, y)
				} else { // y = ¬sel
					linkInv(sel, y)
				}
			}
		}
	}

	cm := &CollapseMap{
		nl:     nl,
		rep:    make([]int32, 2*n),
		simIdx: make([]int32, 2*n),
	}

	// A class is statically inert when any member's stuck value is the
	// only reachable value of its net: the faulty circuit is the golden
	// circuit for every member.
	inertRoot := make(map[int32]bool)
	for id := 0; id < 2*n; id++ {
		f := idFault(id)
		if v, ok := t.ConstantValue(f.Node); ok && v == f.Stuck {
			inertRoot[find(int32(id))] = true
		}
	}

	simOf := make(map[int32]int32)
	for id := 0; id < 2*n; id++ {
		root := find(int32(id))
		cm.rep[id] = root
		if int32(id) == root {
			cm.classes++
			if inertRoot[root] {
				cm.inert++
			}
		}
		if inertRoot[root] {
			cm.simIdx[id] = -1
			continue
		}
		si, ok := simOf[root]
		if !ok {
			si = int32(len(cm.sim))
			simOf[root] = si
			cm.sim = append(cm.sim, idFault(int(root)))
		}
		cm.simIdx[id] = si
	}
	return cm
}

// fanoutCounts counts the readers of every net: gate input references,
// DFF next-state inputs, and primary output bindings.
func fanoutCounts(nl *netlist.Netlist) []int32 {
	fanout := make([]int32, len(nl.Cells))
	for _, c := range nl.Cells {
		for i := 0; i < c.Kind.NumIns(); i++ {
			fanout[c.In[i]]++
		}
	}
	for _, o := range nl.Outputs {
		fanout[o.Node]++
	}
	return fanout
}

// NumFaults reports the size of the full stuck-at fault universe.
func (cm *CollapseMap) NumFaults() int { return len(cm.rep) }

// NumClasses reports the number of equivalence classes (including inert
// ones).
func (cm *CollapseMap) NumClasses() int { return cm.classes }

// NumInertClasses reports how many classes are statically inert (faulty
// circuit provably identical to the golden circuit).
func (cm *CollapseMap) NumInertClasses() int { return cm.inert }

// SimFaults returns the fault list a campaign must actually simulate: one
// representative per non-inert class, in deterministic (node, polarity)
// order.
func (cm *CollapseMap) SimFaults() []netlist.Fault { return cm.sim }

// SimIndex maps a fault of the full universe (by its netlist.FaultList
// index) to its representative's position in SimFaults, or -1 when the
// fault's class is statically inert.
func (cm *CollapseMap) SimIndex(fullIdx int) int { return int(cm.simIdx[fullIdx]) }

// Rep returns the canonical representative fault of f's class.
func (cm *CollapseMap) Rep(f netlist.Fault) netlist.Fault {
	return idFault(int(cm.rep[faultID(f.Node, f.Stuck)]))
}

// Reduction reports the fraction of the fault universe a collapsed
// campaign avoids simulating.
func (cm *CollapseMap) Reduction() float64 {
	if len(cm.rep) == 0 {
		return 0
	}
	return 1 - float64(len(cm.sim))/float64(len(cm.rep))
}
