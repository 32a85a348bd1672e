// Package perfi is the software-level permanent-error injector — the
// reproduction's analog of the paper's NVBitPERfi tool. It implements one
// instrumentation "error function" per error model (Section 6.1) as
// before/after hooks on the GPU simulator, corrupting the threads and
// warps selected by an error descriptor on one SM sub-partition, for every
// dynamic instruction the faulty hardware unit would touch.
package perfi

import (
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
)

// Injector implements gpu.Hook for one error descriptor. Which
// instructions a model acts on is errmodel.Descriptor.Eligible's to say;
// the injector only acts. An Injector is stateful across the Before/After
// pair of a single instruction (saved operand values, in the paper's terms
// the global-memory scratch M) and must not be shared between concurrently
// executing devices.
type Injector struct {
	D errmodel.Descriptor

	// Scratch carried from Before to After of the current instruction.
	saved     [isa.WarpSize]uint32
	saved2    [isa.WarpSize]uint32
	savedPred [isa.WarpSize]bool
	active    uint32 // lanes the Before hook acted on
	reg       uint8  // the register borrow replaced
	armed     bool

	// Activations counts dynamic instructions the injector corrupted.
	Activations uint64
}

// New builds an injector for the descriptor. The second parameter is
// ignored — a faulty run is a pure function of (job, descriptor) — and is
// kept because the repository benchmark calls New with it; pass nil.
func New(d errmodel.Descriptor, _ *rand.Rand) *Injector {
	return &Injector{D: d}
}

// lanes returns the targeted lanes among mask, or 0 if the warp is not
// covered by the descriptor.
func (inj *Injector) lanes(ctx *gpu.InstrCtx, mask uint32) uint32 {
	w := ctx.W
	if !inj.D.TargetsWarp(w.SM, w.PPB, w.IDInSM) {
		return 0
	}
	return mask & inj.D.Threads
}

// borrow sets register reg of the given lanes to register from XOR mask
// for the current instruction; After puts the saved values back.
func (inj *Injector) borrow(w *gpu.Warp, lanes uint32, reg, from uint8, mask uint32) {
	gpu.ForLanes(lanes, func(lane int) {
		inj.saved[lane] = w.Reg(lane, reg)
		w.SetReg(lane, reg, w.Reg(lane, from)^mask)
	})
	inj.reg = reg
	inj.active = lanes
	inj.armed = true
}

// restore undoes borrow.
func (inj *Injector) restore(w *gpu.Warp) {
	gpu.ForLanes(inj.active, func(lane int) {
		w.SetReg(lane, inj.reg, inj.saved[lane])
	})
}

// Before implements gpu.Hook.
func (inj *Injector) Before(ctx *gpu.InstrCtx) {
	inj.armed = false
	inj.active = 0
	d := &inj.D
	lanes := inj.lanes(ctx, ctx.Mask)
	if lanes == 0 || !d.Eligible(ctx.Instr) {
		return
	}
	in := ctx.Instr
	w := ctx.W

	switch d.Model {
	case errmodel.IAC:
		// Detention mode (ErrOperLoc 1): the corrupted CTA bookkeeping
		// wrongly detains the block, so its warps never progress (the
		// paper: IAC's "incorrect detention, assignation, or unauthorized
		// submission of a CTA" makes DUEs more likely than for other
		// parallel-management errors). An unconditional self-branch is
		// that hang (watchdog DUE). Index mode acts in After.
		if d.ErrOperLoc == 1 {
			ctx.Instr = isa.Instruction{Op: isa.OpBRA, Pred: isa.PT,
				Imm: uint16(ctx.PC)}
			inj.Activations++
		}

	case errmodel.IVOC:
		// The corrupted fetch/decode presents an undefined opcode; any
		// instruction the faulty unit touches is affected, so the first
		// targeted issue traps.
		ctx.Instr.Op = isa.Opcode(0xFF)
		inj.Activations++

	case errmodel.IOC:
		gpu.ForLanes(lanes, func(lane int) {
			inj.saved[lane] = w.Reg(lane, in.Rs1)
			inj.saved2[lane] = w.Reg(lane, in.Rs2)
		})
		inj.active = lanes
		inj.armed = true

	case errmodel.IRA, errmodel.IVRA:
		if d.ErrOperLoc == 0 {
			// Destination mode: stash Rd so After can route the result to
			// the wrong register and restore Rd (paper Fig. "destination
			// operand").
			if d.Model == errmodel.IVRA {
				inj.Activations++ // before the trap, which does not return
				ctx.RaiseTrap(gpu.TrapInvalidReg,
					"IVRA: destination register address out of bounds")
			}
			gpu.ForLanes(lanes, func(lane int) {
				inj.saved[lane] = w.Reg(lane, in.Rd)
			})
			inj.active = lanes
			inj.armed = true
			break
		}
		// Source mode: substitute the operand's value with the wrongly
		// addressed register's content for the instruction's execution.
		reg, _ := errmodel.SrcOperand(in, d.ErrOperLoc)
		wrong := uint32(reg) ^ d.BitErrMask
		inj.Activations++ // before the trap, which does not return
		if wrong >= isa.RegsPerThread {
			ctx.RaiseTrap(gpu.TrapInvalidReg,
				"IVRA: source register address out of bounds")
		}
		inj.borrow(w, lanes, reg, uint8(wrong), 0)

	case errmodel.IMD:
		reg := d.StoreReg(in)
		inj.borrow(w, lanes, reg, reg, d.BitErrMask)
		inj.Activations++

	case errmodel.IAL:
		if d.ErrOperLoc == 0 {
			// Disable lane: capture Rd to discard the result afterwards.
			gpu.ForLanes(lanes, func(lane int) {
				inj.saved[lane] = w.Reg(lane, in.Rd)
			})
			inj.active = lanes
			inj.armed = true
			break
		}
		// Force-enable: make the guard predicate pass for target lanes.
		p, neg := in.PredIndex(), in.PredNegated()
		var touched uint32
		gpu.ForLanes(lanes, func(lane int) {
			v := w.Pred(lane, p)
			pass := v
			if neg {
				pass = !v
			}
			if pass {
				return // already executing
			}
			inj.savedPred[lane] = v
			w.SetPred(lane, p, !neg)
			touched |= 1 << lane
		})
		if touched != 0 {
			inj.saved[0] = uint32(p) // remember predicate index
			inj.active = touched
			inj.armed = true
			inj.Activations++
		}
	}
}

// After implements gpu.Hook.
func (inj *Injector) After(ctx *gpu.InstrCtx) {
	d := &inj.D
	in := ctx.Instr
	w := ctx.W

	// Finish the pair Before armed.
	if inj.armed {
		inj.armed = false
		exec := inj.active & ctx.ExecMask
		switch d.Model {
		case errmodel.IOC:
			repl := d.Replacement(in.Op)
			gpu.ForLanes(exec, func(lane int) {
				w.SetReg(lane, in.Rd, isa.Eval(repl, inj.saved[lane], inj.saved2[lane], 0))
			})
			if exec != 0 {
				inj.Activations++
			}
		case errmodel.IRA, errmodel.IVRA:
			if d.ErrOperLoc != 0 {
				inj.restore(w)
				break
			}
			// Destination mode (IRA only: IVRA trapped): move the fresh
			// result to the wrong register and put the old destination
			// value back.
			wrong := uint8((uint32(in.Rd) ^ d.BitErrMask) % isa.RegsPerThread)
			gpu.ForLanes(exec, func(lane int) {
				res := w.Reg(lane, in.Rd)
				w.SetReg(lane, wrong, res)
				w.SetReg(lane, in.Rd, inj.saved[lane])
			})
			if exec != 0 {
				inj.Activations++
			}
		case errmodel.IMD:
			inj.restore(w)
		case errmodel.IAL:
			if d.ErrOperLoc == 0 {
				gpu.ForLanes(exec, func(lane int) {
					w.SetReg(lane, in.Rd, inj.saved[lane])
				})
				if exec != 0 {
					inj.Activations++
				}
			} else {
				p := int(inj.saved[0])
				gpu.ForLanes(inj.active, func(lane int) {
					w.SetPred(lane, p, inj.savedPred[lane])
				})
			}
		}
		return
	}

	lanes := inj.lanes(ctx, ctx.ExecMask)
	if lanes == 0 || !d.Eligible(in) {
		return
	}
	switch d.Model {
	case errmodel.IIO, errmodel.IMS, errmodel.IAT, errmodel.IAW, errmodel.IAC:
		if d.Model == errmodel.IAC && d.ErrOperLoc == 1 {
			return // detention acted in Before; in is its self-branch
		}
		gpu.ForLanes(lanes, func(lane int) {
			w.SetReg(lane, in.Rd, w.Reg(lane, in.Rd)^d.BitErrMask)
		})
		inj.Activations++
	case errmodel.WV:
		p := in.DestPred()
		gpu.ForLanes(lanes, func(lane int) {
			w.SetPred(lane, p, !w.Pred(lane, p))
		})
		inj.Activations++
	}
}
