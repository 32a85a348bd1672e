package netlist

import "fmt"

// Fault is a stuck-at fault on a cell output.
type Fault struct {
	Node  Node
	Stuck bool // false = stuck-at-0, true = stuck-at-1
}

func (f Fault) String() string {
	v := 0
	if f.Stuck {
		v = 1
	}
	return fmt.Sprintf("sa%d@%d", v, f.Node)
}

// FaultList returns the collapsed stuck-at list: both polarities on every
// cell output.
func FaultList(nl *Netlist) []Fault {
	out := make([]Fault, 0, 2*len(nl.Cells))
	for id := range nl.Cells {
		out = append(out, Fault{Node: Node(id), Stuck: false},
			Fault{Node: Node(id), Stuck: true})
	}
	return out
}

// Simulator evaluates a netlist 64 machines at a time: bit k of every
// signal word is the value in machine k. All machines see the same input
// pattern; they differ only in the injected fault, which makes exhaustive
// stuck-at campaigns 64x cheaper than serial simulation (the classic
// parallel fault simulation technique).
type Simulator struct {
	nl       *Netlist
	kern     *Kernels // branch-free evaluation program (nl.Kernels())
	vals     []uint64 // current node values
	state    []uint64 // DFF state, indexed like nl.DFFs
	in       []uint64 // pending input values (broadcast masks)
	laneMask uint64   // lanes SetInput writes; ^0 broadcasts (the default)

	// Per-group fault overrides, dense by node: setArr bits are forced to
	// 1, clrArr bits to 0.
	setArr, clrArr []uint64
}

// NewSimulator builds a simulator with all state reset to 0.
func NewSimulator(nl *Netlist) *Simulator {
	kern := nl.kern
	if kern == nil {
		// Hand-assembled netlists (tests) bypass Build; compile privately
		// rather than mutating the shared netlist.
		kern = buildKernels(nl)
	}
	return &Simulator{
		nl:       nl,
		kern:     kern,
		laneMask: ^uint64(0),
		vals:     make([]uint64, len(nl.Cells)),
		state:    make([]uint64, len(nl.DFFs)),
		in:       make([]uint64, len(nl.Inputs)),
		setArr:   make([]uint64, len(nl.Cells)),
		clrArr:   make([]uint64, len(nl.Cells)),
	}
}

// Reset clears DFF state (between exciting patterns).
func (s *Simulator) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
}

// SetFaults installs a group of up to 64 faults; fault i occupies machine
// lane i. Passing nil clears all faults (golden simulation).
func (s *Simulator) SetFaults(group []Fault) {
	if len(group) > 64 {
		panic("netlist: fault group exceeds 64 lanes")
	}
	for i := range s.setArr {
		s.setArr[i] = 0
		s.clrArr[i] = 0
	}
	for lane, f := range group {
		if f.Stuck {
			s.setArr[f.Node] |= 1 << lane
		} else {
			s.clrArr[f.Node] |= 1 << lane
		}
	}
}

// SetInput drives primary input i (by declaration order) with a logic
// level, written to the lanes selected by the current lane mask (all 64
// by default).
func (s *Simulator) SetInput(i int, v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	s.in[i] = (s.in[i] &^ s.laneMask) | (w & s.laneMask)
}

// SetLaneMask restricts subsequent SetInput/SetInputBus writes to the
// masked lanes, leaving the other lanes' pending values untouched. The
// default (and the reset value) is all-ones — broadcast. Campaigns use
// per-lane masks to pack independent patterns into one golden
// evaluation, one pattern per lane.
func (s *Simulator) SetLaneMask(m uint64) { s.laneMask = m }

// SetInputBus drives a width-w slice of inputs starting at base from an
// integer value, LSB first.
func (s *Simulator) SetInputBus(base, width int, value uint64) {
	for i := 0; i < width; i++ {
		s.SetInput(base+i, value>>i&1 == 1)
	}
}

// Eval propagates the current inputs through the combinational logic
// (fault overrides applied at every node) without clocking the DFFs.
//
// The combinational sweep streams through the netlist's precompiled
// kernel program (Kernels): one branch-free truth-table expression per
// gate, no per-gate kind dispatch. Stuck-at masks are applied
// unconditionally — they are identically zero when no fault is installed —
// so Eval carries no per-node branch.
//
//vetsim:hotpath
func (s *Simulator) Eval() {
	vals := s.vals
	set, clr := s.setArr, s.clrArr

	apply := func(id Node, v uint64) { vals[id] = (v | set[id]) &^ clr[id] }

	k := s.kern
	inIdx := 0
	for _, id := range s.nl.Inputs {
		apply(id, s.in[inIdx])
		inIdx++
	}
	for i, id := range k.ConstNode {
		apply(id, k.ConstWord[i])
	}
	for i, id := range s.nl.DFFs {
		apply(id, s.state[i])
	}

	in0, in1, in2 := k.PIn0, k.PIn1, k.PIn2
	tlo, thi := k.PLo, k.PHi
	for i, id := range k.POut {
		a, b, c := vals[in0[i]], vals[in1[i]], vals[in2[i]]
		ml, mh := &KernelMasks[tlo[i]], &KernelMasks[thi[i]]
		vl := (ml[0]&^a|ml[1]&a)&^b | (ml[2]&^a|ml[3]&a)&b
		vh := (mh[0]&^a|mh[1]&a)&^b | (mh[2]&^a|mh[3]&a)&b
		v := vl&^c | vh&c
		vals[id] = (v | set[id]) &^ clr[id]
	}
}

// Clock latches every DFF's next-state input into its state.
func (s *Simulator) Clock() {
	for i, id := range s.nl.DFFs {
		s.state[i] = s.vals[s.nl.Cells[id].In[0]]
	}
}

// Step is Eval followed by Clock.
func (s *Simulator) Step() {
	s.Eval()
	s.Clock()
}

// Node returns the current value word of a node.
func (s *Simulator) Node(n Node) uint64 { return s.vals[n] }

// CopyNodes copies every node's current value word into dst (one word per
// node, lane k = machine k). Campaigns snapshot the lane-packed golden
// evaluation this way — one bulk copy instead of per-node reads.
func (s *Simulator) CopyNodes(dst []uint64) { copy(dst, s.vals) }

// OutputWord assembles the value of a named output field for machine lane,
// LSB first.
func (s *Simulator) OutputWord(field string, lane int) uint64 {
	var v uint64
	for _, o := range s.nl.Outputs {
		if o.Field == field && s.vals[o.Node]>>lane&1 == 1 {
			v |= 1 << o.Bit
		}
	}
	return v
}

// OutputSlice assembles a field value for machine lane from an explicit
// output-bit list (one field's Outputs entries), LSB first. Campaign inner
// loops use it to avoid OutputWord's scan over every declared output.
func (s *Simulator) OutputSlice(outs []Output, lane int) uint64 {
	var v uint64
	for _, o := range outs {
		if s.vals[o.Node]>>lane&1 == 1 {
			v |= 1 << o.Bit
		}
	}
	return v
}
