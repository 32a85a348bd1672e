package gpu_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
	"gpufaultsim/internal/workloads"
)

// refThread is one thread of the reference interpreter: the ISA's data
// semantics for a single thread, with no warps, masks or scheduler.
type refThread struct {
	regs   [isa.RegsPerThread]uint32
	preds  [isa.NumPredicates]bool
	sregs  [isa.SpecialRegCount]uint32
	pc     int32
	exited bool
}

func (t *refThread) reg(r uint8) uint32 {
	if r == isa.RZ {
		return 0
	}
	return t.regs[r]
}

func (t *refThread) pred(p int) bool { return p == isa.PT || t.preds[p] }

// refMemory is what the threads of one launch share.
type refMemory struct {
	global, shared, params []uint32
	progLen                int
}

func refCompare(c isa.CmpOp, lt, eq bool) bool {
	switch c {
	case isa.CmpEQ:
		return eq
	case isa.CmpNE:
		return !eq
	case isa.CmpLT:
		return lt
	case isa.CmpLE:
		return lt || eq
	case isa.CmpGT:
		return !lt && !eq
	case isa.CmpGE:
		return !lt
	}
	return false
}

// step runs the instruction word raw, fetched at t.pc, for thread t and
// returns the trap it raises (TrapNone when it completes).
func (m *refMemory) step(t *refThread, raw isa.Word) gpu.TrapKind {
	in := isa.Decode(raw)
	if !in.Op.Valid() {
		return gpu.TrapIllegalInstr
	}
	if !in.ValidRegs() {
		return gpu.TrapInvalidReg
	}
	t.pc++
	if t.pred(in.PredIndex()) == in.PredNegated() {
		return gpu.TrapNone // guard fails: the thread skips the instruction
	}
	a, b, c := t.reg(in.Rs1), t.reg(in.Rs2), t.reg(in.Rs3)
	fa, fb := math.Float32frombits(a), math.Float32frombits(b)
	addr := int64(int32(a)) + int64(in.SImm())
	var v uint32 // the value an Op.WritesReg instruction commits to Rd

	switch in.Op {
	case isa.OpNOP, isa.OpBAR: // a barrier orders threads; one thread alone passes it
	case isa.OpEXIT:
		t.exited = true
	case isa.OpBRA:
		if int(in.Imm) >= m.progLen {
			return gpu.TrapBadPC
		}
		t.pc = int32(in.Imm)
	case isa.OpSHL, isa.OpSHR: // the shift count is the immediate
		v = isa.Eval(in.Op, a, uint32(in.Imm), 0)
	case isa.OpMOV, isa.OpSEL: // SEL's guard picked this thread, so it takes Rs1
		v = a
	case isa.OpMOV32I:
		v = uint32(in.SImm())
	case isa.OpS2R:
		if int(in.Imm) < len(t.sregs) {
			v = t.sregs[in.Imm]
		}
	case isa.OpGLD, isa.OpGST:
		if addr < 0 || addr >= int64(len(m.global)) {
			return gpu.TrapBadGlobalAddr
		}
		if v = m.global[addr]; in.Op == isa.OpGST {
			m.global[addr] = b
		}
	case isa.OpLDS, isa.OpSTS:
		if addr < 0 || addr >= int64(len(m.shared)) {
			return gpu.TrapBadSharedAddr
		}
		if v = m.shared[addr]; in.Op == isa.OpSTS {
			m.shared[addr] = b
		}
	case isa.OpLDC:
		if addr < 0 || addr >= int64(len(m.params)) {
			return gpu.TrapBadConstAddr
		}
		v = m.params[addr]
	case isa.OpISETP, isa.OpFSETP, isa.OpPSETP:
		var r bool
		switch pa, pb := t.pred(int(in.Rs1&7)), t.pred(int(in.Rs2&7)); {
		case in.Op == isa.OpISETP:
			r = refCompare(in.Cmp(), int32(a) < int32(b), a == b)
		case in.Op == isa.OpFSETP: // NaN is neither less than nor equal to anything
			r = refCompare(in.Cmp(), fa < fb, fa == fb)
			if fa != fa || fb != fb {
				r = in.Cmp() == isa.CmpNE
			}
		case in.Cmp() == isa.CmpEQ:
			r = pa && pb
		case in.Cmp() == isa.CmpNE:
			r = pa != pb
		default:
			r = pa || pb
		}
		if p := in.DestPred(); p != isa.PT {
			t.preds[p] = r
		}
	default: // register arithmetic
		v = isa.Eval(in.Op, a, b, c)
	}
	if in.Op.WritesReg() && in.Rd != isa.RZ {
		t.regs[in.Rd] = v
	}
	return gpu.TrapNone
}

// refLaunch runs one kernel on dev with the reference interpreter in
// lockstep: the device's issue stream says which threads step next (that
// order is pinned by TestIssueStreamGolden), the reference says what each
// step does to the thread and to memory, and every commit is compared.
func refLaunch(t *testing.T, what string, dev *gpu.Device, prog *kasm.Program, lc gpu.LaunchConfig) gpu.Result {
	t.Helper()
	mem := refMemory{global: dev.ReadGlobal(0, len(dev.Global)), params: lc.Params, progLen: prog.Len()}
	var (
		cta     = gpu.Dim3{X: -1}
		threads map[int]*refThread // of the running CTA, by warp*32+lane
		trap    gpu.TrapKind       // raised by the reference in the current issue
	)
	dims := func(d gpu.Dim3) [3]uint32 {
		return [3]uint32{uint32(max(d.X, 1)), uint32(max(d.Y, 1)), uint32(max(d.Z, 1))}
	}
	thread := func(ctx *gpu.InstrCtx, lane int) *refThread {
		id := ctx.W.IDInSM*isa.WarpSize + lane
		th := threads[id]
		if th == nil { // first issue of the thread: its state is the launch state
			th = &refThread{pc: ctx.W.PC[lane]}
			for r := range th.regs {
				th.regs[r] = ctx.W.Reg(lane, uint8(r))
			}
			n, g := dims(lc.Block), dims(lc.Grid)
			tid := uint32(id)
			c := ctx.W.CTA
			copy(th.sregs[:], []uint32{
				isa.SRTidX: tid % n[0], isa.SRTidY: tid / n[0] % n[1], isa.SRTidZ: tid / (n[0] * n[1]),
				isa.SRCtaidX: uint32(c.X), isa.SRCtaidY: uint32(c.Y), isa.SRCtaidZ: uint32(c.Z),
				isa.SRNTidX: n[0], isa.SRNTidY: n[1], isa.SRNTidZ: n[2],
				isa.SRNCtaidX: g[0], isa.SRNCtaidY: g[1], isa.SRNCtaidZ: g[2],
				isa.SRLaneID: uint32(lane), isa.SRWarpID: uint32(ctx.W.IDInSM), isa.SRSMID: uint32(ctx.W.SM),
			})
			threads[id] = th
		}
		return th
	}
	sameState := func(ctx *gpu.InstrCtx, lane int, th *refThread, regs []uint8) {
		w := ctx.W
		if w.PC[lane] != th.pc || w.LaneLive(lane) == th.exited {
			t.Fatalf("%s: pc %d warp %d lane %d: device at pc %d live %v, reference at pc %d exited %v",
				what, ctx.PC, w.IDInSM, lane, w.PC[lane], w.LaneLive(lane), th.pc, th.exited)
		}
		for _, r := range regs {
			if got, want := w.Reg(lane, r), th.reg(r); got != want {
				t.Fatalf("%s: pc %d (%v) warp %d lane %d: R%d = %#x, reference %#x", what, ctx.PC, ctx.Instr, w.IDInSM, lane, r, got, want)
			}
		}
		for p := range th.preds {
			if got, want := w.Pred(lane, p), th.preds[p]; got != want {
				t.Fatalf("%s: pc %d (%v) warp %d lane %d: P%d = %v, reference %v", what, ctx.PC, ctx.Instr, w.IDInSM, lane, p, got, want)
			}
		}
	}
	var allRegs []uint8
	for r := 0; r < isa.RegsPerThread; r++ {
		allRegs = append(allRegs, uint8(r))
	}

	dev.ClearHooks()
	dev.AddHook(gpu.HookFuncs{
		BeforeFn: func(ctx *gpu.InstrCtx) {
			if ctx.W.CTA != cta { // CTAs run one after the other
				cta, threads = ctx.W.CTA, map[int]*refThread{}
				mem.shared = make([]uint32, lc.SharedWords)
			}
			gpu.ForLanes(ctx.Mask, func(lane int) {
				th := thread(ctx, lane)
				if th.pc != ctx.PC {
					t.Fatalf("%s: warp %d lane %d issued at pc %d, reference thread is at pc %d", what, ctx.W.IDInSM, lane, ctx.PC, th.pc)
				}
				if trap == gpu.TrapNone { // a trap ends the launch at that lane
					trap = mem.step(th, prog.Code[ctx.PC])
				}
			})
		},
		AfterFn: func(ctx *gpu.InstrCtx) {
			if trap != gpu.TrapNone {
				t.Fatalf("%s: pc %d (%v): reference trapped with %v, device went on", what, ctx.PC, ctx.Instr, trap)
			}
			gpu.ForLanes(ctx.Mask, func(lane int) {
				th := threads[ctx.W.IDInSM*isa.WarpSize+lane]
				regs := []uint8{ctx.Instr.Rd}
				if th.exited { // the thread's final state
					regs = allRegs
				}
				sameState(ctx, lane, th, regs)
			})
			if ctx.Instr.Op == isa.OpSTS {
				sameWords(t, what+": shared memory", ctx.Shared, mem.shared)
			}
		},
	})
	res, err := dev.Launch(prog, lc)
	dev.ClearHooks()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	switch res.Trap {
	case trap:
	case gpu.TrapWatchdog, gpu.TrapDeadlock, gpu.TrapBadPC:
		// The scheduler's traps: out of budget, stuck at a barrier, or a
		// fetch past the end, which no thread's step raises.
		if trap != gpu.TrapNone {
			t.Fatalf("%s: device %v, reference %v", what, res, trap)
		}
	default:
		t.Fatalf("%s: device %v, reference %v", what, res, trap)
	}
	sameWords(t, what+": global memory", dev.Global, mem.global)
	return res
}

func sameWords(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#x, reference %#x", what, i, got[i], want[i])
		}
	}
}

// TestExecuteMatchesEval holds the warp-wide execution core to isa.Eval,
// the one-thread statement of what a register-arithmetic opcode computes
// that IOC's replacement and rtlfi's fault-free results use. Every opcode
// Eval defines runs on 256 threads: every pair of edge operands (NaN,
// ±Inf, ±0, denormals, INT32_MIN with -1) and random ones, with shift
// counts 0, 1, 31 and 32. Every other opcode evaluates to 0.
func TestExecuteMatchesEval(t *testing.T) {
	edges := []uint32{
		0, 0x80000000, 1, 0xFFFFFFFF, 0x7FFFFFFF, // ±0 and INT32_MIN, the least denormal, -1 (a NaN), INT32_MAX
		0x7FC00000, 0x7F800000, 0xFF800000, 0x807FFFFF, // NaN, +Inf, -Inf, a negative denormal
		0x3F800000, 0xBF800000, 0x4F000000, 0x7F7FFFFF, // 1, -1, 2^31, the largest float
	}
	var a, b, c []uint32
	for i, x := range edges {
		for j, y := range edges {
			a, b, c = append(a, x), append(b, y), append(c, edges[(i+j)%len(edges)])
		}
	}
	rng := rand.New(rand.NewSource(41))
	for len(a) < 256 {
		a, b, c = append(a, rng.Uint32()), append(b, rng.Uint32()), append(c, rng.Uint32())
	}
	n := len(a)
	dev := gpu.NewDevice(gpu.DefaultConfig())
	check := func(op isa.Opcode, count int) {
		kb := kasm.New("eval")
		kb.S2R(0, isa.SRTidX).GLD(1, 0, 0).GLD(2, 0, n).GLD(3, 0, 2*n)
		switch {
		case op == isa.OpSHL:
			kb.SHL(4, 1, count)
		case op == isa.OpSHR:
			kb.SHR(4, 1, count)
		case op.SrcRegs() == 1:
			kb.Op1(op, 4, 1)
		case op.SrcRegs() == 2:
			kb.Op2(op, 4, 1, 2)
		default:
			kb.Op3(op, 4, 1, 2, 3)
		}
		kb.GST(0, 3*n, 4).EXIT()
		dev.ResetGlobal()
		dev.WriteGlobal(0, a)
		dev.WriteGlobal(n, b)
		dev.WriteGlobal(2*n, c)
		res, err := dev.Launch(kb.MustBuild(), gpu.LaunchConfig{Grid: gpu.Dim3{X: 1}, Block: gpu.Dim3{X: n}})
		if err != nil || res.Hung() {
			t.Fatalf("%v: %v %v", op, err, res)
		}
		for i := range n {
			bi := b[i]
			if op == isa.OpSHL || op == isa.OpSHR {
				bi = uint32(count)
			}
			if got, want := dev.Global[3*n+i], isa.Eval(op, a[i], bi, c[i]); got != want {
				t.Errorf("%v(%#x, %#x, %#x): device %#x, Eval %#x", op, a[i], bi, c[i], got, want)
			}
		}
	}
	defined := []isa.Opcode{
		isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpIMIN, isa.OpIMAX,
		isa.OpIAND, isa.OpIOR, isa.OpIXOR, isa.OpSHL, isa.OpSHR,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA, isa.OpFMIN, isa.OpFMAX,
		isa.OpFSIN, isa.OpFEXP, isa.OpFRCP, isa.OpFSQRT, isa.OpI2F, isa.OpF2I,
	}
	for op := isa.Opcode(0); op.Valid(); op++ {
		switch {
		case op == isa.OpSHL || op == isa.OpSHR:
			for _, count := range []int{0, 1, 31, 32} {
				check(op, count)
			}
		case slices.Contains(defined, op):
			check(op, 0)
		case isa.Eval(op, 1, 2, 3) != 0:
			t.Errorf("Eval(%v) = %#x, want 0 for an opcode it does not define", op, isa.Eval(op, 1, 2, 3))
		}
	}
}

// TestDataSemanticsMatchReference is the data oracle beside the control
// one (TestIssueStreamGolden): lanemask_test.go's 300 random programs and
// the 29 evaluation and profiling jobs, every register, predicate, PC and
// memory commit compared with the one-thread-at-a-time reference.
func TestDataSemanticsMatchReference(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.MaxIssues, cfg.GlobalMemWords = 5000, 1<<12
	dev := gpu.NewDevice(cfg)
	traps := map[gpu.TrapKind]int{}
	gpu.RandomPrograms(15, 300, func(trial int, prog *kasm.Program, lc gpu.LaunchConfig) {
		for i := range dev.Global { // memory worth loading, addresses worth following
			dev.Global[i] = uint32(i * 3 % len(dev.Global))
		}
		traps[refLaunch(t, "random program", dev, prog, lc).Trap]++
	})
	if traps[gpu.TrapNone] < 30 || len(traps) < 4 {
		t.Errorf("random programs ended %v: want >=30 clean runs and >=3 kinds of trap", traps)
	}

	for _, w := range append(cnn.Evaluation15(), workloads.Profiling()...) {
		job := w.Build(rand.New(rand.NewSource(1)))
		dev := sizedDevice(job)
		dev.WriteGlobal(0, job.Init)
		for i, k := range job.Kernels {
			if res := refLaunch(t, w.Name(), dev, k.Prog, k.Cfg); res.Hung() {
				t.Fatalf("%s kernel %d: %v", w.Name(), i, res)
			}
		}
	}
}
