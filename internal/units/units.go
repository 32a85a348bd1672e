// Package units contains gate-level netlists of the three GPU parallelism
// management units the paper characterizes — the warp scheduler controller
// (WSC), the fetch unit, and the instruction decoder — plus the
// area/utilization model behind Table 3.
//
// Each unit is a self-contained synchronous circuit built on the netlist
// substrate. Its primary inputs are driven from an exciting Pattern (the
// per-dynamic-instruction stimulus extracted by the profiler), and its
// primary outputs are named, classified fields: the fault-to-error-model
// classifier (package errclass) maps a corrupted field to one of the 13
// instruction-level error models.
package units

import (
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
)

// NumWarpSlots is the number of warp slots the WSC tracks (the resident
// warp capacity of one SM).
const NumWarpSlots = 32

// FetchSlots is the number of per-warp PC entries the fetch unit keeps.
const FetchSlots = 8

// Pattern is one exciting pattern: the architectural context of one
// dynamic instruction, as observed at the inputs of the units under test.
type Pattern struct {
	Word       isa.Word // fetched instruction word
	PC         uint32   // program counter of the instruction
	WarpID     uint32   // issuing warp slot
	ActiveMask uint32   // thread mask of the issue
	CTAID      uint32   // block identifier (linear)

	BranchTaken  bool   // instruction redirected the PC
	BranchTarget uint16 // redirect target

	// Warp state bitmaps over NumWarpSlots slots.
	WarpValid   uint32
	WarpReady   uint32
	WarpBarrier uint32
}

// Unit couples a netlist with its stimulus protocol.
type Unit struct {
	Name string
	NL   *netlist.Netlist
	// Cycles is the number of clock cycles one pattern takes.
	Cycles int
	// Drive applies pattern p's stimulus for the given cycle (0-based).
	Drive func(sim *netlist.Simulator, p Pattern, cycle int)
	// HangFields are output fields whose corruption stalls the machine
	// (handshake/flow-control signals) rather than corrupting software
	// state.
	HangFields map[string]bool

	// Reduce projects a pattern onto the fields this unit's inputs
	// actually observe. Campaigns deduplicate patterns after reduction:
	// two dynamic instructions that look identical *to this unit* need
	// only one gate-level evaluation — the compression that makes the
	// paper's exhaustive campaigns tractable.
	Reduce func(Pattern) Pattern

	in map[string]int // input bus name -> base index
}

// ReducePatterns maps patterns through the unit's Reduce projection and
// deduplicates, preserving first-seen order.
func (u *Unit) ReducePatterns(patterns []Pattern) []Pattern {
	if u.Reduce == nil {
		return patterns
	}
	seen := make(map[Pattern]bool, len(patterns))
	out := make([]Pattern, 0, len(patterns))
	for _, p := range patterns {
		r := u.Reduce(p)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// inputBase returns the first input index of the named bus.
func (u *Unit) inputBase(name string) int { return u.in[name] }

// busIndex builds the name->base map from the netlist's declared inputs.
// InputBus names bits "name[i]", single Inputs use the bare name.
func busIndex(nl *netlist.Netlist) map[string]int {
	m := make(map[string]int)
	for i, name := range nl.InNames {
		base := name
		for j := 0; j < len(name); j++ {
			if name[j] == '[' {
				base = name[:j]
				break
			}
		}
		if _, seen := m[base]; !seen {
			m[base] = i
		}
	}
	return m
}

// All returns the three units under test in the paper's order.
func All() []*Unit {
	return []*Unit{WSC(), Fetch(), Decoder()}
}

// ByName builds the one unit under test with that name, or returns nil.
func ByName(name string) *Unit {
	switch name {
	case "wsc":
		return WSC()
	case "fetch":
		return Fetch()
	case "decoder":
		return Decoder()
	}
	return nil
}
