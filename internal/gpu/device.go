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
	st     launchState
}

// NewDevice builds a device. It panics on an invalid configuration —
// configurations are static test/benchmark inputs.
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{Cfg: cfg, Global: make([]uint32, cfg.GlobalMemWords)}
	d.st.dev, d.st.smem = d, make([]uint32, cfg.SharedMemWords)
	return d
}

// AddHook registers an instrumentation hook for subsequent launches.
func (d *Device) AddHook(h Hook) { d.hooks = append(d.hooks, h) }

// ClearHooks removes all instrumentation (and keeps the slice).
func (d *Device) ClearHooks() { clear(d.hooks); d.hooks = d.hooks[:0] }

// ResetGlobal zeroes global memory.
func (d *Device) ResetGlobal() { clear(d.Global) }

// WriteGlobal copies data into global memory at word offset off.
func (d *Device) WriteGlobal(off int, data []uint32) { copy(d.Global[off:off+len(data)], data) }

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

// launchState is the execution context of the running launch. The Device
// holds the only one, and its buffers (code, pool, smem) grow to what the
// launches ask for and stay: a launch on a warmed device allocates nothing
// (DESIGN.md "Allocation and dispatch discipline").
type launchState struct {
	dev    *Device
	code   []decoded // the program, decoded and checked once per launch
	lc     LaunchConfig
	res    Result
	sm     int
	pool   []*Warp  // every warp built so far; warps is the running CTA's share
	warps  []*Warp  // reset by buildWarps
	smem   []uint32 // SharedMemWords long; shared is the running CTA's share
	shared []uint32 // zeroed by runCTA
	ctx    InstrCtx // handed to hooks by pointer; reset by issue
}

// decoded is one instruction of the running launch's program.
type decoded struct {
	raw isa.Word
	in  isa.Instruction
	ok  bool // in.Op.Valid() && in.ValidRegs()
}

// Launch runs the program with the given configuration and returns the
// outcome. Traps (DUEs) are reported in the Result, not as errors; errors
// are reserved for malformed launches. A device runs one launch at a time:
// a hook must not launch on the device it instruments.
func (d *Device) Launch(prog *kasm.Program, lc LaunchConfig) (Result, error) {
	if err := lc.Validate(d.Cfg); err != nil {
		return Result{}, err
	}
	if prog.Len() == 0 {
		return Result{}, fmt.Errorf("gpu: empty program %q", prog.Name)
	}
	st := &d.st
	st.lc, st.res, st.shared = lc, Result{}, nil
	// Decoded per launch and not in kasm: a Program's Code is the caller's
	// to build and to change between launches.
	st.code = st.code[:0]
	for _, raw := range prog.Code {
		in := isa.Decode(raw)
		st.code = append(st.code, decoded{raw, in, in.Op.Valid() && in.ValidRegs()})
	}
	gx, gy := max(lc.Grid.X, 1), max(lc.Grid.Y, 1)
	for i := 0; i < lc.Grid.Count(); i++ { // x fastest, then y, then z
		st.sm = i % d.Cfg.NumSMs
		if st.runCTA(Dim3{i % gx, i / gx % gy, i / (gx * gy)}) {
			break // trapped
		}
	}
	return st.res, nil
}

// runCTA executes one block to completion. It reports true if the launch
// trapped (execution must stop).
func (st *launchState) runCTA(cta Dim3) (trapped bool) {
	if n := st.lc.SharedWords; n > 0 {
		st.shared = st.smem[:n]
		clear(st.shared)
	}
	st.buildWarps(cta)

	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(trapError)
			if !ok {
				panic(r)
			}
			st.res.Trap, st.res.TrapInfo, trapped = te.kind, te.info, true
		}
	}()
	st.schedule()
	return false
}

// The register-garbage generator x' = lcgA*x + lcgC (mod 2^64), and the
// same map applied four times over.
const (
	lcgA  = 6364136223846793005
	lcgC  = 1442695040888963407
	lcgA4 = lcgA * lcgA * lcgA * lcgA % (1 << 64)
	lcgC4 = lcgC * (lcgA*lcgA*lcgA + lcgA*lcgA + lcgA + 1) % (1 << 64)
)

// buildWarps resets the CTA's warps out of the pool, assigning them
// round-robin to the SM's sub-partitions (PPBs).
func (st *launchState) buildWarps(cta Dim3) {
	block := st.lc.Block
	bx, by := max(block.X, 1), max(block.Y, 1)
	nThreads := block.Count()
	nWarps := (nThreads + isa.WarpSize - 1) / isa.WarpSize
	for len(st.pool) < nWarps {
		st.pool = append(st.pool, new(Warp))
	}
	st.warps = st.pool[:nWarps]
	for w, warp := range st.warps {
		// Every field, so that nothing of the warp's last CTA survives.
		*warp = Warp{IDInSM: w, PPB: w % st.dev.Cfg.PPBsPerSM, SM: st.sm, CTA: cta}
		// Hardware register files are not zeroed between kernels: fill
		// with deterministic garbage so reads of never-written registers
		// (reachable only through injected register-addressing errors)
		// see wild values, as on silicon. The sequence runs lane by lane,
		// the order it had when the file was lane-major; four interleaved
		// streams draw it without waiting on one multiply chain.
		x0 := lcgA*(uint64(w)<<40^uint64(cta.X)<<20^uint64(cta.Y)<<10^uint64(st.sm)) + lcgC
		x1 := lcgA*x0 + lcgC
		x2 := lcgA*x1 + lcgC
		x3 := lcgA*x2 + lcgC
		for lane := 0; lane < isa.WarpSize; lane++ {
			for r := 0; r < isa.RegsPerThread; r += 4 {
				regs := warp.Regs[r*isa.WarpSize+lane:]
				regs[0*isa.WarpSize] = uint32(x0 >> 33)
				regs[1*isa.WarpSize] = uint32(x1 >> 33)
				regs[2*isa.WarpSize] = uint32(x2 >> 33)
				regs[3*isa.WarpSize] = uint32(x3 >> 33)
				x0, x1, x2, x3 = lcgA4*x0+lcgC4, lcgA4*x1+lcgC4, lcgA4*x2+lcgC4, lcgA4*x3+lcgC4
			}
			if t := w*isa.WarpSize + lane; t < nThreads {
				warp.Valid |= 1 << lane
				warp.TIDs[lane] = Dim3{t % bx, (t / bx) % by, t / (bx * by)}
			}
		}
	}
}

// schedule issues warp-instructions round-robin until every warp has
// exited, a trap fires, or the watchdog expires.
//
//vetsim:hotpath
func (st *launchState) schedule() {
	warps := st.warps
	rr := 0
	for {
		allDone, progressed := true, false
		k := rr
		for range warps {
			w := warps[k]
			if k++; k == len(warps) {
				k = 0
			}
			if w.Done() {
				continue
			}
			allDone = false
			mask, pc, ok := w.schedulable()
			if !ok {
				continue // parked at barrier
			}
			rr = k
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
			trapf(TrapDeadlock, "no schedulable warp; barrier never releases")
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

// trapf raises a trap out of the execution core: the one place, off the
// hot path, where trap text is formatted.
//
//go:noinline
func trapf(kind TrapKind, format string, args ...any) {
	panic(trapError{kind, fmt.Sprintf(format, args...)})
}

// issue fetches, instruments and executes one warp-instruction.
//
//vetsim:hotpath
func (st *launchState) issue(w *Warp, mask uint32, pc int32) {
	res := &st.res
	res.Issues++
	if res.Issues > st.dev.Cfg.MaxIssues {
		trapf(TrapWatchdog, "issue budget %d exhausted", st.dev.Cfg.MaxIssues)
	}
	if pc < 0 || int(pc) >= len(st.code) {
		trapf(TrapBadPC, "fetch at pc=%d, program has %d instructions", pc, len(st.code))
	}
	dec := &st.code[pc]
	// Every field, one by one: a composite literal would be built aside
	// and copied over.
	ctx := &st.ctx
	ctx.Dev, ctx.W, ctx.PC, ctx.Raw, ctx.Instr = st.dev, w, pc, dec.raw, dec.in
	ctx.Mask, ctx.ExecMask, ctx.DisableMask = mask, 0, 0
	ctx.Shared, ctx.Params = st.shared, st.lc.Params
	for _, h := range st.dev.hooks {
		h.Before(ctx)
	}
	in := ctx.Instr
	if !dec.ok || in != dec.in { // a bad encoding, or a Before hook's rewrite to check
		if !in.Op.Valid() {
			trapf(TrapIllegalInstr, "pc=%d opcode=%#x", pc, uint8(in.Op))
		}
		if !in.ValidRegs() {
			trapf(TrapInvalidReg, "pc=%d %v", pc, in)
		}
	}

	// Predication: lanes whose guard fails skip the instruction.
	execMask := mask & w.predMask(in.PredIndex(), in.PredNegated())
	ctx.ExecMask = execMask

	res.UnitIssues[in.Op.Unit()]++
	res.ThreadOps += uint64(bits.OnesCount32(execMask))

	st.execute(w, in, mask, execMask, pc, ctx.DisableMask)

	for _, h := range st.dev.hooks {
		pcs := w.PC
		h.After(ctx)
		if w.PC != pcs {
			w.conv = 0 // the hook moved lanes: the next schedulable rescans
		}
	}
}

func f32(v uint32) float32 { return math.Float32frombits(v) }
func b32(f float32) uint32 { return math.Float32bits(f) }

// first returns the lowest lane of lane set m, visibly below WarpSize so
// that indexing a register row with it needs no bounds check; rest drops
// that lane and returns what is left with its lowest lane. Together they
// walk a set: for l := first(m); m != 0; m, l = rest(m).
func first(m uint32) int { return bits.TrailingZeros32(m) & (isa.WarpSize - 1) }

func rest(m uint32) (uint32, int) { return m & (m - 1), first(m & (m - 1)) }

// space returns the memory a memory opcode addresses, and the trap and the
// word for an access outside it.
func (st *launchState) space(op isa.Opcode) ([]uint32, TrapKind, string) {
	switch op {
	case isa.OpGLD:
		return st.dev.Global, TrapBadGlobalAddr, "load"
	case isa.OpGST:
		return st.dev.Global, TrapBadGlobalAddr, "store"
	case isa.OpLDS:
		return st.shared, TrapBadSharedAddr, "shared load"
	case isa.OpSTS:
		return st.shared, TrapBadSharedAddr, "shared store"
	}
	return st.lc.Params, TrapBadConstAddr, "const load"
}

// execute advances the PC of every lane in mask and applies the
// instruction's semantics to the lanes in execMask: one dispatch on the
// opcode, then a loop over the lanes along the operands' register rows.
//
//vetsim:hotpath
func (st *launchState) execute(w *Warp, in isa.Instruction, mask, execMask uint32, pc int32, disable uint32) {
	// Every scheduled lane falls through, but for those a branch takes.
	if in.Op == isa.OpBRA && execMask != 0 {
		target := int32(in.Imm)
		if int(target) >= len(st.code) {
			trapf(TrapBadPC, "branch to %d at pc=%d", target, pc)
		}
		w.setPC(execMask, target)
		mask &^= execMask
	}
	if mask != 0 {
		w.setPC(mask, pc+1)
	}

	// Commit suppression from hooks (stuck-at-0 thread enables): data
	// operations skip disabled lanes, while control flow (BRA above, EXIT,
	// BAR) runs unmasked so the warp keeps advancing.
	m := execMask &^ disable
	d, a, b, c := w.regRow(in.Rd, &w.sink), w.regRow(in.Rs1, &w.zero), w.regRow(in.Rs2, &w.zero), w.regRow(in.Rs3, &w.zero)

	switch in.Op {
	case isa.OpEXIT:
		w.Exited |= execMask
	case isa.OpBAR:
		w.Barrier |= execMask
	case isa.OpIADD:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] + b[l]
		}
	case isa.OpISUB:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] - b[l]
		}
	case isa.OpIMUL:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] * b[l]
		}
	case isa.OpIMAD:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l]*b[l] + c[l]
		}
	case isa.OpIMIN:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = uint32(min(int32(a[l]), int32(b[l])))
		}
	case isa.OpIMAX:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = uint32(max(int32(a[l]), int32(b[l])))
		}
	case isa.OpIAND:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] & b[l]
		}
	case isa.OpIOR:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] | b[l]
		}
	case isa.OpIXOR:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] ^ b[l]
		}
	case isa.OpSHL:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] << (in.Imm & 31)
		}
	case isa.OpSHR:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l] >> (in.Imm & 31)
		}
	case isa.OpFADD:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(f32(a[l]) + f32(b[l]))
		}
	case isa.OpFSUB:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(f32(a[l]) - f32(b[l]))
		}
	case isa.OpFMUL:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(f32(a[l]) * f32(b[l]))
		}
	case isa.OpFFMA:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(float64(f32(a[l]))*float64(f32(b[l])) + float64(f32(c[l]))))
		}
	case isa.OpFMIN:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(math.Min(float64(f32(a[l])), float64(f32(b[l])))))
		}
	case isa.OpFMAX:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(math.Max(float64(f32(a[l])), float64(f32(b[l])))))
		}
	case isa.OpFSIN:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(math.Sin(float64(f32(a[l])))))
		}
	case isa.OpFEXP:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(math.Exp2(float64(f32(a[l])))))
		}
	case isa.OpFRCP:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(1 / f32(a[l]))
		}
	case isa.OpFSQRT:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(math.Sqrt(float64(f32(a[l])))))
		}
	case isa.OpI2F:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = b32(float32(int32(a[l])))
		}
	case isa.OpF2I:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = uint32(int32(f32(a[l])))
		}
	case isa.OpMOV, isa.OpSEL:
		// SEL's guard is already applied: executing lanes take Rs1 and the
		// predicated-off lanes keep Rd untouched, so SEL pairs with a
		// PNot'd SEL for the else value.
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = a[l]
		}
	case isa.OpMOV32I:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = uint32(in.SImm())
		}
	case isa.OpS2R:
		for l := first(m); m != 0; m, l = rest(m) {
			d[l] = st.specialReg(w, l, in.Imm)
		}
	case isa.OpGLD, isa.OpLDS, isa.OpLDC, isa.OpGST, isa.OpSTS:
		mem, kind, what := st.space(in.Op)
		store := in.Op == isa.OpGST || in.Op == isa.OpSTS
		for l := first(m); m != 0; m, l = rest(m) {
			addr := int32(a[l]) + in.SImm()
			if addr < 0 || int(addr) >= len(mem) {
				trapf(kind, "%s @%d pc=%d lane=%d", what, addr, pc, l)
			}
			if store {
				mem[addr] = b[l]
			} else {
				d[l] = mem[addr]
			}
		}
	case isa.OpISETP:
		var t uint32
		for m, l := m, first(m); m != 0; m, l = rest(m) {
			if compare(in.Cmp(), int32(a[l]), int32(b[l])) {
				t |= 1 << l
			}
		}
		w.setPreds(in.DestPred(), m, t)
	case isa.OpFSETP:
		var t uint32
		for m, l := m, first(m); m != 0; m, l = rest(m) {
			if compare(in.Cmp(), f32(a[l]), f32(b[l])) {
				t |= 1 << l
			}
		}
		w.setPreds(in.DestPred(), m, t)
	case isa.OpPSETP:
		pa, pb := w.predMask(int(in.Rs1&0x7), false), w.predMask(int(in.Rs2&0x7), false)
		t := pa | pb // every selector but EQ, which ands, and NE, which xors
		if in.Cmp() == isa.CmpEQ {
			t = pa & pb
		} else if in.Cmp() == isa.CmpNE {
			t = pa ^ pb
		}
		w.setPreds(in.DestPred(), m, t)
	}
}

func (st *launchState) specialReg(w *Warp, lane int, sr uint16) uint32 {
	switch {
	case sr <= isa.SRTidZ:
		return uint32(w.TIDs[lane].axis(sr - isa.SRTidX))
	case sr <= isa.SRCtaidZ:
		return uint32(w.CTA.axis(sr - isa.SRCtaidX))
	case sr <= isa.SRNTidZ:
		return uint32(max(st.lc.Block.axis(sr-isa.SRNTidX), 1))
	case sr <= isa.SRNCtaidZ:
		return uint32(max(st.lc.Grid.axis(sr-isa.SRNCtaidX), 1))
	case sr == isa.SRLaneID:
		return uint32(lane)
	case sr == isa.SRWarpID:
		return uint32(w.IDInSM)
	case sr == isa.SRSMID:
		return uint32(w.SM)
	}
	return 0
}

func compare[T int32 | float32](c isa.CmpOp, a, b T) bool {
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
