package gpu

import (
	"fmt"
	"math"
	"math/bits"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
)

// Device is a simulated GPU. A Device owns global memory and a hook list;
// kernel launches run CTAs to completion, one resident CTA per SM at a
// time (the FlexGripPlus execution model).
type Device struct {
	Cfg    Config
	Global []uint32
	hooks  []Hook
}

// NewDevice builds a device. It panics on an invalid configuration —
// configurations are static test/benchmark inputs.
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Device{Cfg: cfg, Global: make([]uint32, cfg.GlobalMemWords)}
}

// AddHook registers an instrumentation hook for subsequent launches.
func (d *Device) AddHook(h Hook) { d.hooks = append(d.hooks, h) }

// ClearHooks removes all instrumentation.
func (d *Device) ClearHooks() { d.hooks = nil }

// ResetGlobal zeroes global memory.
func (d *Device) ResetGlobal() {
	for i := range d.Global {
		d.Global[i] = 0
	}
}

// WriteGlobal copies data into global memory at word offset off.
func (d *Device) WriteGlobal(off int, data []uint32) {
	copy(d.Global[off:off+len(data)], data)
}

// ReadGlobal copies n words starting at word offset off.
func (d *Device) ReadGlobal(off, n int) []uint32 {
	out := make([]uint32, n)
	copy(out, d.Global[off:off+n])
	return out
}

// trapError carries a trap out of the execution core via panic/recover;
// it never escapes Launch.
type trapError struct {
	kind TrapKind
	info string
}

// launchState holds per-launch execution context.
type launchState struct {
	dev    *Device
	prog   *kasm.Program
	lc     LaunchConfig
	shared []uint32
	warps  []*Warp
	res    *Result
	sm     int
}

// Launch runs the program with the given configuration and returns the
// outcome. Traps (DUEs) are reported in the Result, not as errors; errors
// are reserved for malformed launches.
func (d *Device) Launch(prog *kasm.Program, lc LaunchConfig) (Result, error) {
	if err := lc.Validate(d.Cfg); err != nil {
		return Result{}, err
	}
	if prog.Len() == 0 {
		return Result{}, fmt.Errorf("gpu: empty program %q", prog.Name)
	}
	var res Result
	grid := lc.Grid
	gx, gy, gz := max(grid.X, 1), max(grid.Y, 1), max(grid.Z, 1)
	for bz := 0; bz < gz; bz++ {
		for by := 0; by < gy; by++ {
			for bx := 0; bx < gx; bx++ {
				cta := Dim3{bx, by, bz}
				smID := (bx + by*gx + bz*gx*gy) % d.Cfg.NumSMs
				if done := d.runCTA(prog, lc, cta, smID, &res); done {
					return res, nil // trapped
				}
			}
		}
	}
	return res, nil
}

// runCTA executes one block to completion. It reports true if the launch
// trapped (execution must stop).
func (d *Device) runCTA(prog *kasm.Program, lc LaunchConfig, cta Dim3, smID int, res *Result) bool {
	st := &launchState{dev: d, prog: prog, lc: lc, res: res, sm: smID}
	if lc.SharedWords > 0 {
		st.shared = make([]uint32, lc.SharedWords)
	}
	st.buildWarps(cta)

	trapped := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				te, ok := r.(trapError)
				if !ok {
					panic(r)
				}
				res.Trap = te.kind
				res.TrapInfo = te.info
				trapped = true
			}
		}()
		st.schedule()
	}()
	return trapped
}

// buildWarps creates the CTA's warps, assigning them round-robin to the
// SM's sub-partitions (PPBs).
func (st *launchState) buildWarps(cta Dim3) {
	block := st.lc.Block
	bx, by, bz := max(block.X, 1), max(block.Y, 1), max(block.Z, 1)
	nThreads := bx * by * bz
	nWarps := (nThreads + isa.WarpSize - 1) / isa.WarpSize
	st.warps = make([]*Warp, nWarps)
	for w := 0; w < nWarps; w++ {
		warp := &Warp{
			IDInSM: w,
			PPB:    w % st.dev.Cfg.PPBsPerSM,
			SM:     st.sm,
			CTA:    cta,
		}
		// Hardware register files are not zeroed between kernels: fill
		// with deterministic garbage so reads of never-written registers
		// (reachable only through injected register-addressing errors)
		// see wild values, as on silicon.
		seed := uint64(w)<<40 ^ uint64(cta.X)<<20 ^ uint64(cta.Y)<<10 ^ uint64(st.sm)
		for i := range warp.Regs {
			seed = seed*6364136223846793005 + 1442695040888963407
			warp.Regs[i] = uint32(seed >> 33)
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			t := w*isa.WarpSize + lane
			if t >= nThreads {
				break
			}
			warp.Valid |= 1 << lane
			warp.TIDs[lane] = Dim3{t % bx, (t / bx) % by, t / (bx * by)}
		}
		st.warps[w] = warp
	}
}

// schedule issues warp-instructions round-robin until every warp has
// exited, a trap fires, or the watchdog expires.
func (st *launchState) schedule() {
	rr := 0
	for {
		allDone := true
		progressed := false
		for i := 0; i < len(st.warps); i++ {
			w := st.warps[(rr+i)%len(st.warps)]
			if w.Done() {
				continue
			}
			allDone = false
			mask, pc, ok := w.schedulable()
			if !ok {
				continue // parked at barrier
			}
			rr = (rr + i + 1) % len(st.warps)
			st.issue(w, mask, pc)
			progressed = true
			st.maybeReleaseBarrier()
			break
		}
		if allDone {
			return
		}
		if !progressed {
			// No warp schedulable and the barrier did not release:
			// divergent or mismatched BAR — a real GPU hangs here.
			panic(trapError{TrapDeadlock, "no schedulable warp; barrier never releases"})
		}
	}
}

// maybeReleaseBarrier releases the CTA barrier once every live lane of
// every warp is parked.
func (st *launchState) maybeReleaseBarrier() {
	anyParked := false
	for _, w := range st.warps {
		if w.Done() {
			continue
		}
		if !w.allAtBarrier() {
			return
		}
		anyParked = true
	}
	if !anyParked {
		return
	}
	for _, w := range st.warps {
		w.Barrier = 0
	}
}

// issue fetches, decodes, instruments and executes one warp-instruction.
func (st *launchState) issue(w *Warp, mask uint32, pc int32) {
	res := st.res
	res.Issues++
	if res.Issues > st.dev.Cfg.MaxIssues {
		panic(trapError{TrapWatchdog, fmt.Sprintf("issue budget %d exhausted", st.dev.Cfg.MaxIssues)})
	}
	if pc < 0 || int(pc) >= st.prog.Len() {
		panic(trapError{TrapBadPC, fmt.Sprintf("fetch at pc=%d, program has %d instructions", pc, st.prog.Len())})
	}
	raw := st.prog.Code[pc]
	ctx := InstrCtx{
		Dev: st.dev, W: w, PC: pc, Raw: raw, Instr: isa.Decode(raw),
		Mask: mask, Shared: st.shared, Params: st.lc.Params,
	}
	for _, h := range st.dev.hooks {
		h.Before(&ctx)
	}
	in := ctx.Instr

	if !in.Op.Valid() {
		panic(trapError{TrapIllegalInstr, fmt.Sprintf("pc=%d opcode=%#x", pc, uint8(in.Op))})
	}
	if !in.ValidRegs() {
		panic(trapError{TrapInvalidReg, fmt.Sprintf("pc=%d %v", pc, in)})
	}

	// Predication: lanes whose guard fails skip the instruction.
	execMask := mask & w.predMask(in.PredIndex(), in.PredNegated())
	ctx.ExecMask = execMask

	res.UnitIssues[in.Op.Unit()]++
	res.ThreadOps += uint64(bits.OnesCount32(execMask))

	st.execute(w, in, mask, execMask, pc, &ctx)

	for _, h := range st.dev.hooks {
		h.After(&ctx)
	}
}

// execute applies instruction semantics for the lanes in execMask and
// advances PCs for every lane in mask.
func (st *launchState) execute(w *Warp, in isa.Instruction, mask, execMask uint32, pc int32, ctx *InstrCtx) {
	// Every scheduled lane falls through; taken branches overwrite below.
	ForLanes(mask, func(lane int) { w.PC[lane] = pc + 1 })

	switch in.Op {
	case isa.OpBRA:
		target := int32(in.Imm)
		if execMask != 0 && (target < 0 || int(target) >= st.prog.Len()) {
			panic(trapError{TrapBadPC, fmt.Sprintf("branch to %d at pc=%d", target, pc)})
		}
		ForLanes(execMask, func(lane int) { w.PC[lane] = target })
	case isa.OpEXIT:
		w.Exited |= execMask
	case isa.OpBAR:
		w.Barrier |= execMask
	default:
		// Commit suppression from hooks (stuck-at-0 thread enables): data
		// operations skip disabled lanes, while control flow above already
		// ran unmasked so the warp keeps advancing.
		ForLanes(execMask&^ctx.DisableMask, func(lane int) { st.executeLane(w, in, lane, pc) })
	}
}

func f32(v uint32) float32    { return math.Float32frombits(v) }
func b32(f float32) uint32    { return math.Float32bits(f) }
func sat32(v float64) float32 { return float32(v) }
func i32(v uint32) int32      { return int32(v) }
func u32(v int32) uint32      { return uint32(v) }

// executeLane applies the semantics of one instruction for one lane.
func (st *launchState) executeLane(w *Warp, in isa.Instruction, lane int, pc int32) {
	r := func(reg uint8) uint32 { return w.Reg(lane, reg) }
	set := func(v uint32) { w.SetReg(lane, in.Rd, v) }

	switch in.Op {
	case isa.OpNOP:
	case isa.OpIADD:
		set(u32(i32(r(in.Rs1)) + i32(r(in.Rs2))))
	case isa.OpISUB:
		set(u32(i32(r(in.Rs1)) - i32(r(in.Rs2))))
	case isa.OpIMUL:
		set(u32(i32(r(in.Rs1)) * i32(r(in.Rs2))))
	case isa.OpIMAD:
		set(u32(i32(r(in.Rs1))*i32(r(in.Rs2)) + i32(r(in.Rs3))))
	case isa.OpIMIN:
		a, b := i32(r(in.Rs1)), i32(r(in.Rs2))
		set(u32(min(a, b)))
	case isa.OpIMAX:
		a, b := i32(r(in.Rs1)), i32(r(in.Rs2))
		set(u32(max(a, b)))
	case isa.OpIAND:
		set(r(in.Rs1) & r(in.Rs2))
	case isa.OpIOR:
		set(r(in.Rs1) | r(in.Rs2))
	case isa.OpIXOR:
		set(r(in.Rs1) ^ r(in.Rs2))
	case isa.OpSHL:
		set(r(in.Rs1) << (in.Imm & 31))
	case isa.OpSHR:
		set(r(in.Rs1) >> (in.Imm & 31))

	case isa.OpFADD:
		set(b32(f32(r(in.Rs1)) + f32(r(in.Rs2))))
	case isa.OpFSUB:
		set(b32(f32(r(in.Rs1)) - f32(r(in.Rs2))))
	case isa.OpFMUL:
		set(b32(f32(r(in.Rs1)) * f32(r(in.Rs2))))
	case isa.OpFFMA:
		set(b32(sat32(float64(f32(r(in.Rs1)))*float64(f32(r(in.Rs2))) + float64(f32(r(in.Rs3))))))
	case isa.OpFMIN:
		set(b32(float32(math.Min(float64(f32(r(in.Rs1))), float64(f32(r(in.Rs2)))))))
	case isa.OpFMAX:
		set(b32(float32(math.Max(float64(f32(r(in.Rs1))), float64(f32(r(in.Rs2)))))))

	case isa.OpFSIN:
		set(b32(float32(math.Sin(float64(f32(r(in.Rs1)))))))
	case isa.OpFEXP:
		set(b32(float32(math.Exp2(float64(f32(r(in.Rs1)))))))
	case isa.OpFRCP:
		set(b32(1 / f32(r(in.Rs1))))
	case isa.OpFSQRT:
		set(b32(float32(math.Sqrt(float64(f32(r(in.Rs1)))))))

	case isa.OpI2F:
		set(b32(float32(i32(r(in.Rs1)))))
	case isa.OpF2I:
		set(u32(int32(f32(r(in.Rs1)))))

	case isa.OpMOV:
		set(r(in.Rs1))
	case isa.OpMOV32I:
		set(u32(in.SImm()))
	case isa.OpS2R:
		set(st.specialReg(w, lane, in.Imm))
	case isa.OpSEL:
		// Guard already applied: executing lanes take Rs1. The predicated-
		// off lanes keep Rd untouched, so SEL pairs with a PNot'd SEL for
		// the else value.
		set(r(in.Rs1))

	case isa.OpGLD:
		addr := i32(r(in.Rs1)) + in.SImm()
		if addr < 0 || int(addr) >= len(st.dev.Global) {
			panic(trapError{TrapBadGlobalAddr, fmt.Sprintf("load @%d pc=%d lane=%d", addr, pc, lane)})
		}
		set(st.dev.Global[addr])
	case isa.OpGST:
		addr := i32(r(in.Rs1)) + in.SImm()
		if addr < 0 || int(addr) >= len(st.dev.Global) {
			panic(trapError{TrapBadGlobalAddr, fmt.Sprintf("store @%d pc=%d lane=%d", addr, pc, lane)})
		}
		st.dev.Global[addr] = r(in.Rs2)
	case isa.OpLDS:
		addr := i32(r(in.Rs1)) + in.SImm()
		if addr < 0 || int(addr) >= len(st.shared) {
			panic(trapError{TrapBadSharedAddr, fmt.Sprintf("shared load @%d pc=%d lane=%d", addr, pc, lane)})
		}
		set(st.shared[addr])
	case isa.OpSTS:
		addr := i32(r(in.Rs1)) + in.SImm()
		if addr < 0 || int(addr) >= len(st.shared) {
			panic(trapError{TrapBadSharedAddr, fmt.Sprintf("shared store @%d pc=%d lane=%d", addr, pc, lane)})
		}
		st.shared[addr] = r(in.Rs2)
	case isa.OpLDC:
		addr := i32(r(in.Rs1)) + in.SImm()
		if addr < 0 || int(addr) >= len(st.lc.Params) {
			panic(trapError{TrapBadConstAddr, fmt.Sprintf("const load @%d pc=%d lane=%d", addr, pc, lane)})
		}
		set(st.lc.Params[addr])

	case isa.OpISETP:
		a, b := i32(r(in.Rs1)), i32(r(in.Rs2))
		w.SetPred(lane, in.DestPred(), icmp(in.Cmp(), a, b))
	case isa.OpFSETP:
		a, b := f32(r(in.Rs1)), f32(r(in.Rs2))
		w.SetPred(lane, in.DestPred(), fcmp(in.Cmp(), a, b))
	case isa.OpPSETP:
		a := w.Pred(lane, int(in.Rs1&0x7))
		b := w.Pred(lane, int(in.Rs2&0x7))
		var v bool
		switch in.Cmp() {
		case isa.CmpEQ: // AND
			v = a && b
		case isa.CmpNE: // XOR
			v = a != b
		default: // OR
			v = a || b
		}
		w.SetPred(lane, in.DestPred(), v)
	}
}

func (st *launchState) specialReg(w *Warp, lane int, sr uint16) uint32 {
	t := w.TIDs[lane]
	switch sr {
	case isa.SRTidX:
		return uint32(t.X)
	case isa.SRTidY:
		return uint32(t.Y)
	case isa.SRTidZ:
		return uint32(t.Z)
	case isa.SRCtaidX:
		return uint32(w.CTA.X)
	case isa.SRCtaidY:
		return uint32(w.CTA.Y)
	case isa.SRCtaidZ:
		return uint32(w.CTA.Z)
	case isa.SRNTidX:
		return uint32(max(st.lc.Block.X, 1))
	case isa.SRNTidY:
		return uint32(max(st.lc.Block.Y, 1))
	case isa.SRNTidZ:
		return uint32(max(st.lc.Block.Z, 1))
	case isa.SRNCtaidX:
		return uint32(max(st.lc.Grid.X, 1))
	case isa.SRNCtaidY:
		return uint32(max(st.lc.Grid.Y, 1))
	case isa.SRNCtaidZ:
		return uint32(max(st.lc.Grid.Z, 1))
	case isa.SRLaneID:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(w.IDInSM)
	case isa.SRSMID:
		return uint32(w.SM)
	}
	return 0
}

func icmp(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func fcmp(c isa.CmpOp, a, b float32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
