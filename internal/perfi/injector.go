// Package perfi is the software-level permanent-error injector — the
// reproduction's analog of the paper's NVBitPERfi tool. It implements one
// instrumentation "error function" per error model (Section 6.1) as
// before/after hooks on the GPU simulator, corrupting the threads and
// warps selected by an error descriptor on one SM sub-partition, for every
// dynamic instruction the faulty hardware unit would touch.
package perfi

import (
	"math"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
)

// Injector implements gpu.Hook for one error descriptor. An Injector is
// stateful across the Before/After pair of a single instruction (saved
// operand values, in the paper's terms the global-memory scratch M) and
// must not be shared between concurrently executing devices.
type Injector struct {
	D errmodel.Descriptor

	// Scratch carried from Before to After of the current instruction.
	saved     [isa.WarpSize]uint32
	saved2    [isa.WarpSize]uint32
	savedPred [isa.WarpSize]bool
	active    uint32 // lanes the Before hook acted on
	armed     bool

	// Activations counts dynamic instructions the injector corrupted.
	Activations uint64
	// occurrences counts dynamic instructions the broken unit touched
	// (whether or not the persistence gate let the corruption through).
	occurrences uint64
}

// fire consults the persistence gate for the next dynamic occurrence: a
// permanent fault corrupts every occurrence, a transient fault exactly one,
// an intermittent fault every DutyCycle-th.
func (inj *Injector) fire() bool {
	o := inj.occurrences
	inj.occurrences++
	switch inj.D.Persistence {
	case errmodel.Transient:
		return o == inj.D.TransientAt
	case errmodel.Intermittent:
		k := inj.D.DutyCycle
		if k < 2 {
			k = 2
		}
		return o%uint64(k) == 0
	default:
		return true
	}
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

// evalBinop applies a two-source replacement operation (IOC).
func evalBinop(op isa.Opcode, a, b uint32) uint32 {
	f := math.Float32frombits
	fb := math.Float32bits
	switch op {
	case isa.OpIADD:
		return uint32(int32(a) + int32(b))
	case isa.OpISUB:
		return uint32(int32(a) - int32(b))
	case isa.OpIMUL:
		return uint32(int32(a) * int32(b))
	case isa.OpIAND:
		return a & b
	case isa.OpIOR:
		return a | b
	case isa.OpIXOR:
		return a ^ b
	case isa.OpIMIN:
		return uint32(min(int32(a), int32(b)))
	case isa.OpIMAX:
		return uint32(max(int32(a), int32(b)))
	case isa.OpFADD:
		return fb(f(a) + f(b))
	case isa.OpFSUB:
		return fb(f(a) - f(b))
	case isa.OpFMUL:
		return fb(f(a) * f(b))
	case isa.OpFMIN:
		return fb(float32(math.Min(float64(f(a)), float64(f(b)))))
	case isa.OpFMAX:
		return fb(float32(math.Max(float64(f(a)), float64(f(b)))))
	}
	return a
}

var fpReplacements = []isa.Opcode{
	isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMIN, isa.OpFMAX,
}

// replacementOp resolves the IOC substitute for the instruction's unit
// class from the descriptor's sampled opcode.
func (inj *Injector) replacementOp(in isa.Instruction) isa.Opcode {
	if in.Op.Unit() == isa.UnitFP32 {
		op := fpReplacements[int(inj.D.ReplOp)%len(fpReplacements)]
		if op == in.Op {
			op = fpReplacements[(int(inj.D.ReplOp)+1)%len(fpReplacements)]
		}
		return op
	}
	op := inj.D.ReplOp
	if op == in.Op {
		op = isa.OpIXOR
		if in.Op == isa.OpIXOR {
			op = isa.OpIADD
		}
	}
	return op
}

// iocEligible reports whether IOC instruments the instruction: everything
// issued by the integer or floating point cores with two register sources.
func iocEligible(in isa.Instruction) bool {
	u := in.Op.Unit()
	return (u == isa.UnitINT || u == isa.UnitFP32) &&
		in.Op.WritesReg() && in.Op.SrcRegs() >= 2
}

// alEligible reports whether IAL covers the instruction (work executed on
// an integer or floating point core lane).
func alEligible(in isa.Instruction) bool {
	u := in.Op.Unit()
	return (u == isa.UnitINT || u == isa.UnitFP32) && in.Op.WritesReg()
}

// srcOperand returns the source register at position loc (1-based), or
// (0,false) when the instruction has no such operand.
func srcOperand(in isa.Instruction, loc int) (uint8, bool) {
	if loc < 1 || loc > in.Op.SrcRegs() {
		return 0, false
	}
	switch loc {
	case 1:
		return in.Rs1, true
	case 2:
		return in.Rs2, true
	default:
		return in.Rs3, true
	}
}

// Before implements gpu.Hook.
func (inj *Injector) Before(ctx *gpu.InstrCtx) {
	inj.armed = false
	inj.active = 0
	d := &inj.D
	lanes := inj.lanes(ctx, ctx.Mask)
	if lanes == 0 {
		return
	}
	in := ctx.Instr
	w := ctx.W

	switch d.Model {
	case errmodel.IAC:
		// Detention mode (ErrOperLoc 1): the corrupted CTA bookkeeping
		// wrongly detains the block — its warps never commit or finish,
		// which the application observes as a hang (the paper: IAC's
		// "incorrect detention, assignation, or unauthorized submission
		// of a CTA" makes DUEs more likely than for other parallel-
		// management errors). Index-corruption mode is handled in After.
		if d.ErrOperLoc == 1 && inj.fire() {
			// The block never progresses: model the detention as an
			// unconditional self-branch, which the application observes
			// as a kernel hang (watchdog DUE).
			ctx.Instr = isa.Instruction{Op: isa.OpBRA, Pred: isa.PT,
				Imm: uint16(ctx.PC)}
			inj.Activations++
		}

	case errmodel.IVOC:
		// The corrupted fetch/decode presents an undefined opcode; any
		// instruction the faulty unit touches is affected, so the first
		// targeted issue traps.
		if !inj.fire() {
			return
		}
		ctx.Instr.Op = isa.Opcode(0xFF)
		inj.Activations++

	case errmodel.IOC:
		if !iocEligible(in) || !inj.fire() {
			return
		}
		gpu.ForLanes(lanes, func(lane int) {
			inj.saved[lane] = w.Reg(lane, in.Rs1)
			inj.saved2[lane] = w.Reg(lane, in.Rs2)
		})
		inj.active = lanes
		inj.armed = true

	case errmodel.IRA, errmodel.IVRA:
		inj.beforeRegAddr(ctx, lanes)

	case errmodel.IMD:
		if in.Op != isa.OpSTS {
			return
		}
		reg := in.Rs2 // data register
		if d.ErrOperLoc == 1 {
			reg = in.Rs1 // address register
		}
		if reg == isa.RZ || !inj.fire() {
			return
		}
		gpu.ForLanes(lanes, func(lane int) {
			inj.saved[lane] = w.Reg(lane, reg)
			w.SetReg(lane, reg, inj.saved[lane]^d.BitErrMask)
		})
		inj.active = lanes
		inj.armed = true
		inj.Activations++

	case errmodel.IAL:
		if !alEligible(in) {
			return
		}
		if d.ErrOperLoc == 0 {
			// Disable lane: capture Rd to discard the result afterwards.
			if in.Rd == isa.RZ || !inj.fire() {
				return
			}
			gpu.ForLanes(lanes, func(lane int) {
				inj.saved[lane] = w.Reg(lane, in.Rd)
			})
			inj.active = lanes
			inj.armed = true
		} else {
			// Force-enable: make the guard predicate pass for target lanes.
			if in.Unconditional() || !inj.fire() {
				return
			}
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
}

// beforeRegAddr implements the Before halves of IRA and IVRA.
func (inj *Injector) beforeRegAddr(ctx *gpu.InstrCtx, lanes uint32) {
	d := &inj.D
	in := ctx.Instr
	w := ctx.W
	if d.ErrOperLoc == 0 {
		// Destination mode: stash Rd so After can route the result to the
		// wrong register and restore Rd (paper Fig. "destination operand").
		if !in.Op.WritesReg() || in.Rd == isa.RZ || !inj.fire() {
			return
		}
		if d.Model == errmodel.IVRA {
			ctx.RaiseTrap(gpu.TrapInvalidReg,
				"IVRA: destination register address out of bounds")
		}
		gpu.ForLanes(lanes, func(lane int) {
			inj.saved[lane] = w.Reg(lane, in.Rd)
		})
		inj.active = lanes
		inj.armed = true
		return
	}
	// Source mode: substitute the operand's value with the wrongly
	// addressed register's content for the instruction's execution.
	reg, ok := srcOperand(in, d.ErrOperLoc)
	if !ok || reg == isa.RZ || !inj.fire() {
		return
	}
	wrong := uint32(reg) ^ d.BitErrMask
	if wrong >= isa.RegsPerThread {
		ctx.RaiseTrap(gpu.TrapInvalidReg,
			"IVRA: source register address out of bounds")
	}
	gpu.ForLanes(lanes, func(lane int) {
		inj.saved[lane] = w.Reg(lane, reg)
		w.SetReg(lane, reg, w.Reg(lane, uint8(wrong)))
	})
	inj.active = lanes
	inj.armed = true
	inj.Activations++
}

// After implements gpu.Hook.
func (inj *Injector) After(ctx *gpu.InstrCtx) {
	d := &inj.D
	in := ctx.Instr
	w := ctx.W

	// Finish armed Before/After pairs first.
	if inj.armed {
		inj.armed = false
		switch d.Model {
		case errmodel.IOC:
			repl := inj.replacementOp(in)
			exec := inj.active & ctx.ExecMask
			gpu.ForLanes(exec, func(lane int) {
				w.SetReg(lane, in.Rd, evalBinop(repl, inj.saved[lane], inj.saved2[lane]))
			})
			if exec != 0 {
				inj.Activations++
			}
		case errmodel.IRA:
			if d.ErrOperLoc == 0 {
				// Destination mode: move the fresh result to the wrong
				// register and put the old destination value back.
				wrong := uint8((uint32(in.Rd) ^ d.BitErrMask) % isa.RegsPerThread)
				exec := inj.active & ctx.ExecMask
				gpu.ForLanes(exec, func(lane int) {
					res := w.Reg(lane, in.Rd)
					w.SetReg(lane, wrong, res)
					w.SetReg(lane, in.Rd, inj.saved[lane])
				})
				if exec != 0 {
					inj.Activations++
				}
			}
		case errmodel.IVRA:
			// Source mode restore is unreachable (it traps); nothing to do.
		case errmodel.IMD:
			reg := in.Rs2
			if d.ErrOperLoc == 1 {
				reg = in.Rs1
			}
			gpu.ForLanes(inj.active, func(lane int) {
				w.SetReg(lane, reg, inj.saved[lane])
			})
		case errmodel.IAL:
			if d.ErrOperLoc == 0 {
				exec := inj.active & ctx.ExecMask
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
	}

	// Source-mode IRA restores the borrowed operand after execution.
	if d.Model == errmodel.IRA && d.ErrOperLoc != 0 && inj.active != 0 {
		if reg, ok := srcOperand(in, d.ErrOperLoc); ok && reg != isa.RZ {
			gpu.ForLanes(inj.active, func(lane int) {
				w.SetReg(lane, reg, inj.saved[lane])
			})
		}
		inj.active = 0
		return
	}

	lanes := inj.lanes(ctx, ctx.ExecMask)
	if lanes == 0 {
		return
	}

	switch d.Model {
	case errmodel.IIO:
		if in.Op.HasImmediate() && in.Op.WritesReg() && in.Rd != isa.RZ && inj.fire() {
			gpu.ForLanes(lanes, func(lane int) {
				w.SetReg(lane, in.Rd, w.Reg(lane, in.Rd)^d.BitErrMask)
			})
			inj.Activations++
		}
	case errmodel.IMS:
		if (in.Op == isa.OpLDS || in.Op == isa.OpLDC) && in.Rd != isa.RZ && inj.fire() {
			gpu.ForLanes(lanes, func(lane int) {
				w.SetReg(lane, in.Rd, w.Reg(lane, in.Rd)^d.BitErrMask)
			})
			inj.Activations++
		}
	case errmodel.WV:
		if (in.Op == isa.OpISETP || in.Op == isa.OpFSETP || in.Op == isa.OpPSETP) &&
			in.DestPred() == int(d.BitErrMask)%isa.NumPredicates && inj.fire() {
			p := in.DestPred()
			gpu.ForLanes(lanes, func(lane int) {
				w.SetPred(lane, p, !w.Pred(lane, p))
			})
			inj.Activations++
		}
	case errmodel.IAT, errmodel.IAW:
		if in.Op == isa.OpS2R && in.Imm <= isa.SRTidZ && in.Rd != isa.RZ && inj.fire() {
			gpu.ForLanes(lanes, func(lane int) {
				w.SetReg(lane, in.Rd, w.Reg(lane, in.Rd)^d.BitErrMask)
			})
			inj.Activations++
		}
	case errmodel.IAC:
		if in.Op == isa.OpS2R && in.Imm >= isa.SRCtaidX && in.Imm <= isa.SRCtaidZ &&
			in.Rd != isa.RZ && inj.fire() {
			gpu.ForLanes(lanes, func(lane int) {
				w.SetReg(lane, in.Rd, w.Reg(lane, in.Rd)^d.BitErrMask)
			})
			inj.Activations++
		}
	}
}
