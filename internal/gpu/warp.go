package gpu

import (
	"math/bits"

	"gpufaultsim/internal/isa"
)

// Warp holds the architectural state of one warp: per-lane program
// counters (min-PC reconvergence scheduling), registers, predicates and
// thread identity.
//
// The per-lane PC model makes arbitrary divergent control flow correct
// without compiler-inserted reconvergence points: each issue executes the
// lanes whose PC equals the minimum PC across schedulable lanes, so
// diverged lanes serialize and implicitly reconverge — the same observable
// behaviour as a G80 SIMT stack for structured code.
//
// Every lane set is a uint32 mask with bit i standing for lane i, the
// format InstrCtx and errmodel.Descriptor already use. Invariants:
// Exited ⊆ Valid, Barrier ⊆ Valid &^ Exited, and on every issue
// ExecMask ⊆ Mask ⊆ Valid &^ Exited &^ Barrier.
type Warp struct {
	IDInSM int  // warp slot within the SM (used by error descriptors)
	PPB    int  // sub-partition the warp is bound to
	SM     int  // owning SM
	CTA    Dim3 // block index of the owning CTA

	Valid   uint32 // lanes that carry a live thread (block tail may be partial)
	Exited  uint32 // lanes that executed EXIT
	Barrier uint32 // lanes parked at a CTA barrier

	PC [isa.WarpSize]int32
	// The scheduler's summary of PC: every lane in conv sits at convPC.
	// setPC and schedulable set it; issue voids it when a hook moved a lane.
	conv   uint32
	convPC int32

	TIDs [isa.WarpSize]Dim3 // per-lane thread index within the block
	// Regs is register-major — register r of lane l is Regs[r*WarpSize+l] —
	// so a warp-wide instruction walks contiguous rows. Use Reg and SetReg.
	Regs  [isa.RegsPerThread * isa.WarpSize]uint32
	Preds [isa.NumPredicates]uint32 // lane mask per predicate P0..P6

	zero, sink row // stand in for RZ: the row read as zero, the row written and never read
}

// row is one register across the warp's lanes.
type row = [isa.WarpSize]uint32

// regRow returns register r across the lanes, or rz when r is RZ: zero to
// read, sink to write. So does any other register outside the file:
// ValidRegs vouches only for the operands an opcode uses, and execute takes
// the rows of all four.
func (w *Warp) regRow(r uint8, rz *row) *row {
	if r >= isa.RegsPerThread {
		return rz
	}
	return (*row)(w.Regs[int(r)*isa.WarpSize:])
}

// Reg returns register r of lane. RZ reads zero; architecturally invalid
// registers must be rejected before calling (the simulator traps first).
func (w *Warp) Reg(lane int, r uint8) uint32 {
	if r == isa.RZ {
		return 0
	}
	return w.Regs[int(r)*isa.WarpSize+lane]
}

// SetReg writes register r of lane. Writes to RZ are discarded.
func (w *Warp) SetReg(lane int, r uint8, v uint32) {
	if r == isa.RZ {
		return
	}
	w.Regs[int(r)*isa.WarpSize+lane] = v
}

// Pred returns predicate p of lane (PT is constant true).
func (w *Warp) Pred(lane, p int) bool {
	return w.predMask(p, false)&(1<<lane) != 0
}

// SetPred writes predicate p of lane. Writes to PT are discarded.
func (w *Warp) SetPred(lane, p int, v bool) {
	var val uint32
	if v {
		val = 1 << lane
	}
	w.setPreds(p, 1<<lane, val)
}

// setPreds writes predicate p of the given lanes from the same lanes of
// val. Writes to PT are discarded.
func (w *Warp) setPreds(p int, lanes, val uint32) {
	if p != isa.PT {
		w.Preds[p] = w.Preds[p]&^lanes | val&lanes
	}
}

// predMask returns the lanes on which predicate p (negated if neg) holds.
// PT holds on every lane.
func (w *Warp) predMask(p int, neg bool) uint32 {
	m := ^uint32(0)
	if p != isa.PT {
		m = w.Preds[p]
	}
	if neg {
		m = ^m
	}
	return m
}

// live returns the lanes that hold a thread that has not exited.
func (w *Warp) live() uint32 { return w.Valid &^ w.Exited }

// LaneLive reports whether the lane holds a thread that has not exited.
func (w *Warp) LaneLive(lane int) bool { return w.live()&(1<<lane) != 0 }

// schedulable returns the set of lanes that could issue (live and not
// parked at a barrier) and sit at the minimum PC among them.
func (w *Warp) schedulable() (mask uint32, minPC int32, ok bool) {
	ready := w.live() &^ w.Barrier
	if ready == 0 {
		return 0, 0, false
	}
	if ready&^w.conv == 0 {
		return ready, w.convPC, true // converged: no lane to scan
	}
	minPC = 1<<31 - 1
	for m := ready; m != 0; m &= m - 1 {
		lane := first(m)
		switch pc := w.PC[lane]; {
		case pc < minPC:
			minPC, mask = pc, 1<<lane
		case pc == minPC:
			mask |= 1 << lane
		}
	}
	w.conv, w.convPC = mask, minPC
	return mask, minPC, true
}

// setPC moves the given lanes, at least one, to pc.
func (w *Warp) setPC(lanes uint32, pc int32) {
	w.conv, w.convPC = lanes, pc
	if lanes&(lanes+1) == 0 { // lanes 0..n-1: a converged warp, whole or a block's tail
		for l := range w.PC[:bits.Len32(lanes)] {
			w.PC[l] = pc
		}
		return
	}
	for ; lanes != 0; lanes &= lanes - 1 {
		w.PC[first(lanes)] = pc
	}
}

// Done reports whether every live lane has exited.
func (w *Warp) Done() bool { return w.live() == 0 }

// allAtBarrier reports whether every live lane is parked at a barrier.
func (w *Warp) allAtBarrier() bool {
	live := w.live()
	return live != 0 && live&^w.Barrier == 0
}
