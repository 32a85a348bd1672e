// Package netlist provides the gate-level substrate of the reproduction: a
// structural netlist representation (primitive cells + D flip-flops), a
// builder with datapath macros (adders, comparators, muxes, arbiters), and
// a 64-way bit-parallel stuck-at fault simulator.
//
// The units under test (warp scheduler controller, fetch, decoder — package
// units) are synthesized onto this substrate; package gatesim runs the
// exhaustive stuck-at campaigns over per-instruction exciting patterns,
// standing in for the paper's commercial logic simulator and 15nm-library
// netlists.
package netlist

//vetsim:deterministic

import (
	"fmt"
	"slices"
)

// Node identifies a net (a cell output) within a netlist.
type Node int32

// CellKind enumerates the primitive cells.
type CellKind uint8

const (
	KInput CellKind = iota // primary input
	KConst                 // constant (In[0]==1 means logic 1)
	KBuf
	KInv
	KAnd
	KOr
	KXor
	KNand
	KNor
	KMux // In: a, b, sel → sel ? b : a
	KDFF // state element; In[0] is the next-state net
)

var kindNames = [...]string{
	"INPUT", "CONST", "BUF", "INV", "AND", "OR", "XOR", "NAND", "NOR", "MUX", "DFF",
}

func (k CellKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Cell is one gate instance. Node i's driver is Cells[i].
type Cell struct {
	Kind CellKind
	In   [3]Node
}

// Output is a named, classified primary output bit. Field groups the bits
// that belong to one architectural signal (e.g. "rd", "active_mask"); Bit
// is the position within that field. The fault-to-error-model classifier
// keys on Field.
type Output struct {
	Field string
	Bit   int
	Node  Node
}

// Netlist is an immutable gate-level circuit.
type Netlist struct {
	Name    string
	Cells   []Cell
	Inputs  []Node   // primary input nodes, in declaration order
	InNames []string // parallel to Inputs
	Outputs []Output
	DFFs    []Node // DFF cell nodes, in declaration order

	order []Node   // combinational evaluation order (excludes inputs, consts, DFFs)
	kern  *Kernels // branch-free evaluation program, compiled by Build
}

// NumFaults reports the size of the collapsed stuck-at fault list
// (two faults per cell output).
func (n *Netlist) NumFaults() int { return 2 * len(n.Cells) }

// EvalOrder returns the combinational cells in dependency order (inputs,
// constants and DFFs excluded). Static analyses use it to sweep the
// circuit the same way Eval does. Callers must not mutate the slice.
func (n *Netlist) EvalOrder() []Node { return n.order }

// Builder constructs a Netlist. Wiring methods panic on out-of-range node
// arguments (programming errors at construction time); whole-circuit
// defects — combinational cycles, unwired DFFs, misused datapath macros
// (bus width mismatches, MuxN arity) — surface as a structured
// *BuildError from Build, or a panic from MustBuild.
type Builder struct {
	name    string
	cells   []Cell
	inputs  []Node
	inNames []string
	outputs []Output
	dffs    []Node
	const0  Node
	const1  Node
	hasC0   bool
	hasC1   bool
	diags   []Diagnostic // macro-misuse findings, reported by Build
}

// NewBuilder starts a netlist.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

func (b *Builder) add(c Cell) Node {
	b.cells = append(b.cells, c)
	return Node(len(b.cells) - 1)
}

func (b *Builder) check(n Node) {
	if n < 0 || int(n) >= len(b.cells) {
		panic(fmt.Sprintf("netlist %s: dangling node %d", b.name, n))
	}
}

// Input declares a primary input.
func (b *Builder) Input(name string) Node {
	n := b.add(Cell{Kind: KInput})
	b.inputs = append(b.inputs, n)
	b.inNames = append(b.inNames, name)
	return n
}

// InputBus declares a multi-bit input, LSB first.
func (b *Builder) InputBus(name string, width int) []Node {
	bus := make([]Node, width)
	for i := range bus {
		bus[i] = b.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// Const returns a constant-0 or constant-1 net (shared).
func (b *Builder) Const(v bool) Node {
	if v {
		if !b.hasC1 {
			b.const1 = b.add(Cell{Kind: KConst, In: [3]Node{1}})
			b.hasC1 = true
		}
		return b.const1
	}
	if !b.hasC0 {
		b.const0 = b.add(Cell{Kind: KConst})
		b.hasC0 = true
	}
	return b.const0
}

// Not returns ¬a.
func (b *Builder) Not(a Node) Node {
	b.check(a)
	return b.add(Cell{Kind: KInv, In: [3]Node{a}})
}

// Buf returns a buffered copy of a (a distinct fault site).
func (b *Builder) Buf(a Node) Node {
	b.check(a)
	return b.add(Cell{Kind: KBuf, In: [3]Node{a}})
}

// And returns a∧b.
func (b *Builder) And(a, c Node) Node {
	b.check(a)
	b.check(c)
	return b.add(Cell{Kind: KAnd, In: [3]Node{a, c}})
}

// Or returns a∨b.
func (b *Builder) Or(a, c Node) Node {
	b.check(a)
	b.check(c)
	return b.add(Cell{Kind: KOr, In: [3]Node{a, c}})
}

// Xor returns a⊕b.
func (b *Builder) Xor(a, c Node) Node {
	b.check(a)
	b.check(c)
	return b.add(Cell{Kind: KXor, In: [3]Node{a, c}})
}

// Nand returns ¬(a∧b).
func (b *Builder) Nand(a, c Node) Node {
	b.check(a)
	b.check(c)
	return b.add(Cell{Kind: KNand, In: [3]Node{a, c}})
}

// Nor returns ¬(a∨b).
func (b *Builder) Nor(a, c Node) Node {
	b.check(a)
	b.check(c)
	return b.add(Cell{Kind: KNor, In: [3]Node{a, c}})
}

// Mux returns sel ? hi : lo.
func (b *Builder) Mux(sel, lo, hi Node) Node {
	b.check(sel)
	b.check(lo)
	b.check(hi)
	return b.add(Cell{Kind: KMux, In: [3]Node{lo, hi, sel}})
}

// DFF declares a state element; wire its next-state input later with
// SetDFF. Reading the returned node yields the current state.
func (b *Builder) DFF() Node {
	n := b.add(Cell{Kind: KDFF, In: [3]Node{-1}})
	b.dffs = append(b.dffs, n)
	return n
}

// SetDFF connects the next-state net of a DFF created by DFF().
func (b *Builder) SetDFF(q, d Node) {
	b.check(q)
	b.check(d)
	if b.cells[q].Kind != KDFF {
		panic(fmt.Sprintf("netlist %s: SetDFF on non-DFF node %d", b.name, q))
	}
	b.cells[q].In[0] = d
}

// Output declares a named single-bit output.
func (b *Builder) Output(field string, bit int, n Node) {
	b.check(n)
	b.outputs = append(b.outputs, Output{Field: field, Bit: bit, Node: n})
}

// OutputBus declares a multi-bit output field, LSB first.
func (b *Builder) OutputBus(field string, bus []Node) {
	for i, n := range bus {
		b.Output(field, i, n)
	}
}

// Build finalizes the netlist: validates the structure (DFF wiring,
// combinational cycles, node references) and computes the combinational
// evaluation order. Structural defects — including datapath-macro misuse
// recorded during construction — return a *BuildError carrying one
// Diagnostic per finding.
func (b *Builder) Build() (*Netlist, error) {
	nl := &Netlist{
		Name: b.name, Cells: b.cells, Inputs: b.inputs, InNames: b.inNames,
		Outputs: b.outputs, DFFs: b.dffs,
	}
	diags := slices.Concat(b.diags, ValidateNetlist(nl))
	if len(diags) > 0 {
		return nil, &BuildError{Name: b.name, Diags: diags}
	}
	nl.order = topoOrder(nl)
	nl.kern = buildKernels(nl)
	return nl, nil
}

// MustBuild is Build for setup-time construction: it panics on a
// structurally invalid circuit. The unit builders use it — their netlists
// are fixed at compile time, so fail-fast is the right trade-off.
func (b *Builder) MustBuild() *Netlist {
	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return nl
}

// topoOrder returns the combinational cells in dependency order. Inputs,
// constants and DFFs are sources. Callers validate the netlist first
// (ValidateNetlist), so cycles cannot occur here.
func topoOrder(nl *Netlist) []Node {
	n := len(nl.Cells)
	state := make([]uint8, n) // 0 unvisited, 1 visiting, 2 done
	order := make([]Node, 0, n)

	var visit func(Node)
	visit = func(id Node) {
		c := &nl.Cells[id]
		if c.Kind == KInput || c.Kind == KConst || c.Kind == KDFF {
			state[id] = 2
			return
		}
		switch state[id] {
		case 1:
			panic(fmt.Sprintf("netlist %s: combinational cycle through node %d", nl.Name, id))
		case 2:
			return
		}
		state[id] = 1
		nin := c.Kind.NumIns()
		for i := 0; i < nin; i++ {
			visit(c.In[i])
		}
		state[id] = 2
		order = append(order, id)
	}
	// Visit everything reachable from outputs and DFF next-state nets, plus
	// any remaining cells (so dangling logic still simulates and counts as
	// fault sites).
	for _, o := range nl.Outputs {
		visit(o.Node)
	}
	for _, q := range nl.DFFs {
		visit(nl.Cells[q].In[0])
	}
	for id := 0; id < n; id++ {
		if state[id] == 0 {
			visit(Node(id))
		}
	}
	return order
}

// NumIns reports how many In slots the cell kind reads. KConst is 0: its
// In[0] encodes the constant value, not a node reference.
func (k CellKind) NumIns() int {
	switch k {
	case KInput, KConst:
		return 0
	case KBuf, KInv:
		return 1
	case KMux:
		return 3
	case KDFF:
		return 1
	default:
		return 2
	}
}
