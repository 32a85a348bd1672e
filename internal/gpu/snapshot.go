package gpu

import (
	"slices"

	"gpufaultsim/internal/isa"
)

// LaunchState is a copy of the running launch's state, as much of it as
// decides what the launch does next: the running CTA, the scheduler's
// round-robin cursor, every warp's PCs, exit and barrier masks,
// predicates and registers, the CTA's shared segment and global memory.
// Take it with Device.Capture and hold the launch to it with
// Device.Recurs. Its buffers grow to the largest launch captured and
// stay, so once they have, a capture allocates nothing.
//
// What a state leaves out cannot change the launch's course: a warp's
// slot, SM, thread indices and valid lanes follow from the CTA, constant
// memory and the program from the launch, and the issue counters steer
// nothing but the watchdog.
type LaunchState struct {
	seq    uint64 // the launch captured; 0 matches none
	cta    Dim3
	rr     int
	w      int // the issuing warp's slot
	pc     int32
	warps  []warpState
	shared []uint32
	global []uint32
}

// warpState is the mutable part of a Warp.
type warpState struct {
	pc              [isa.WarpSize]int32
	exited, barrier uint32
	preds           [isa.NumPredicates]uint32
	regs            [isa.RegsPerThread * isa.WarpSize]uint32
}

// LaunchIssues returns the warp-instructions the running launch has
// issued so far, the one being issued included.
func (d *Device) LaunchIssues() uint64 { return d.st.res.Issues }

// Capture copies the running launch's state into s, with w the warp
// issuing at pc. It is meant for an After hook: between two issues the
// state is all there is, while a Before hook may be holding registers it
// borrowed for the issue.
func (d *Device) Capture(s *LaunchState, w *Warp, pc int32) {
	st := &d.st
	s.seq, s.cta, s.rr, s.w, s.pc = st.seq, w.CTA, st.rr, w.IDInSM, pc
	s.warps = slices.Grow(s.warps[:0], len(st.warps))[:len(st.warps)]
	for i, w := range st.warps {
		ws := &s.warps[i]
		ws.pc, ws.exited, ws.barrier, ws.preds, ws.regs = w.PC, w.Exited, w.Barrier, w.Preds, w.Regs
	}
	s.shared = append(s.shared[:0], st.shared...)
	s.global = append(s.global[:0], d.Global...)
}

// Recurs reports whether the running launch, with w issuing at pc, is in
// the state s captured earlier in the same launch. The device is
// deterministic, so if it is, and no hook carries state from one issue
// to the next, the launch repeats the issues in between forever: no trap
// but the watchdog can end it. The cheap fields are compared first and
// the memories last.
func (d *Device) Recurs(s *LaunchState, w *Warp, pc int32) bool {
	st := &d.st
	if s.seq != st.seq || s.w != w.IDInSM || s.pc != pc || s.rr != st.rr ||
		s.cta != w.CTA || len(s.warps) != len(st.warps) {
		return false
	}
	for i, w := range st.warps {
		ws := &s.warps[i]
		if ws.exited != w.Exited || ws.barrier != w.Barrier || ws.pc != w.PC || ws.preds != w.Preds {
			return false
		}
	}
	for i, w := range st.warps {
		if s.warps[i].regs != w.Regs {
			return false
		}
	}
	return slices.Equal(s.shared, st.shared) && slices.Equal(s.global, d.Global)
}
