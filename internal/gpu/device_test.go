package gpu

import (
	"math"
	"testing"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
)

// vecAddProgram builds out[i] = a[i] + b[i] for i < n.
// Params: 0=aBase 1=bBase 2=outBase 3=n.
func vecAddProgram() *kasm.Program {
	b := kasm.New("vecadd")
	b.GlobalThreadIdX(0, 1) // R0 = gid
	b.Param(1, 3)           // R1 = n
	b.GuardGE(0, 0, 1, "done")
	b.Param(2, 0) // R2 = aBase
	b.Param(3, 1) // R3 = bBase
	b.Param(4, 2) // R4 = outBase
	b.IADD(5, 2, 0)
	b.GLD(6, 5, 0) // R6 = a[gid]
	b.IADD(5, 3, 0)
	b.GLD(7, 5, 0) // R7 = b[gid]
	b.FADD(8, 6, 7)
	b.IADD(5, 4, 0)
	b.GST(5, 0, 8)
	b.Label("done").EXIT()
	return b.MustBuild()
}

func launchVecAdd(t *testing.T, d *Device, n, blockX int) Result {
	t.Helper()
	aBase, bBase, outBase := 0, n, 2*n
	for i := 0; i < n; i++ {
		d.Global[aBase+i] = math.Float32bits(float32(i))
		d.Global[bBase+i] = math.Float32bits(float32(2 * i))
	}
	grid := Dim3{X: (n + blockX - 1) / blockX}
	res, err := d.Launch(vecAddProgram(), LaunchConfig{
		Grid:   grid,
		Block:  Dim3{X: blockX},
		Params: []uint32{uint32(aBase), uint32(bBase), uint32(outBase), uint32(n)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVectorAdd(t *testing.T) {
	d := NewDevice(DefaultConfig())
	n := 100
	res := launchVecAdd(t, d, n, 64)
	if res.Hung() {
		t.Fatalf("unexpected trap: %v", res)
	}
	for i := 0; i < n; i++ {
		got := math.Float32frombits(d.Global[2*n+i])
		want := float32(3 * i)
		if got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestPartialWarpAndGuard(t *testing.T) {
	// n=5 with block of 32: 27 lanes must be guarded off; 5 results written.
	d := NewDevice(DefaultConfig())
	res := launchVecAdd(t, d, 5, 32)
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	for i := 0; i < 5; i++ {
		if got := math.Float32frombits(d.Global[10+i]); got != float32(3*i) {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
	if d.Global[15] != 0 {
		t.Fatal("wrote past n")
	}
}

func TestLoopExecution(t *testing.T) {
	// Thread 0 sums 1..10 into global[0] via a loop.
	b := kasm.New("loopsum")
	b.MOVI(0, 0)  // acc
	b.MOVI(1, 1)  // i
	b.MOVI(2, 11) // limit
	b.Label("loop")
	b.IADD(0, 0, 1)
	b.MOVI(3, 1)
	b.IADD(1, 1, 3)
	b.LoopLT(0, 1, 2, "loop")
	b.MOVI(4, 0)
	b.GST(4, 0, 0)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if err != nil || res.Hung() {
		t.Fatalf("err=%v res=%v", err, res)
	}
	if d.Global[0] != 55 {
		t.Fatalf("sum = %d, want 55", d.Global[0])
	}
}

func TestDivergentBranchReconverges(t *testing.T) {
	// Even lanes write 1, odd lanes write 2, then ALL lanes write their
	// lane id to a second array (checks reconvergence after divergence).
	b := kasm.New("diverge")
	b.S2R(0, isa.SRTidX) // R0 = tid
	b.MOVI(1, 1)
	b.IAND(2, 0, 1) // R2 = tid & 1
	b.MOVI(3, 0)
	b.ISETP(isa.CmpNE, 0, 2, 3) // P0 = odd
	b.P(0).BRA("odd")
	b.MOVI(4, 1)
	b.BRA("store")
	b.Label("odd")
	b.MOVI(4, 2)
	b.Label("store")
	b.GST(0, 0, 4) // global[tid] = value
	b.MOVI(5, 32)
	b.IADD(5, 0, 5)
	b.GST(5, 0, 0) // global[32+tid] = tid (post-reconvergence)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}})
	if err != nil || res.Hung() {
		t.Fatalf("err=%v res=%v", err, res)
	}
	for i := 0; i < 32; i++ {
		want := uint32(1)
		if i%2 == 1 {
			want = 2
		}
		if d.Global[i] != want {
			t.Fatalf("global[%d] = %d, want %d", i, d.Global[i], want)
		}
		if d.Global[32+i] != uint32(i) {
			t.Fatalf("global[32+%d] = %d, want %d", i, d.Global[32+i], i)
		}
	}
}

func TestBarrierAndSharedMemoryReduction(t *testing.T) {
	// Block of 64 (2 warps): each thread stores tid+1 to shared, barrier,
	// thread 0 sums all and writes to global[0]. Exercises cross-warp
	// synchronization.
	b := kasm.New("reduce")
	b.S2R(0, isa.SRTidX)
	b.MOVI(1, 1)
	b.IADD(2, 0, 1) // R2 = tid+1
	b.STS(0, 0, 2)  // shared[tid] = tid+1
	b.BAR()
	b.MOVI(3, 0)
	b.ISETP(isa.CmpNE, 0, 0, 3)
	b.P(0).BRA("done")
	// thread 0 only:
	b.MOVI(4, 0)  // acc
	b.MOVI(5, 0)  // i
	b.MOVI(6, 64) // limit
	b.Label("loop")
	b.LDS(7, 5, 0)
	b.IADD(4, 4, 7)
	b.IADD(5, 5, 1)
	b.LoopLT(1, 5, 6, "loop")
	b.MOVI(8, 0)
	b.GST(8, 0, 4)
	b.Label("done").EXIT()
	d := NewDevice(DefaultConfig())
	res, err := d.Launch(b.MustBuild(), LaunchConfig{
		Grid: Dim3{X: 1}, Block: Dim3{X: 64}, SharedWords: 64,
	})
	if err != nil || res.Hung() {
		t.Fatalf("err=%v res=%v", err, res)
	}
	if d.Global[0] != 64*65/2 {
		t.Fatalf("reduction = %d, want %d", d.Global[0], 64*65/2)
	}
}

func TestMultiCTAGrid(t *testing.T) {
	d := NewDevice(DefaultConfig())
	res := launchVecAdd(t, d, 256, 32) // 8 CTAs
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	for i := 0; i < 256; i += 37 {
		if got := math.Float32frombits(d.Global[512+i]); got != float32(3*i) {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
}

func TestTrapIllegalInstruction(t *testing.T) {
	p := &kasm.Program{Name: "bad", Code: []isa.Word{
		isa.Instruction{Op: isa.Opcode(0xEE), Pred: isa.PT}.Encode(),
	}}
	d := NewDevice(DefaultConfig())
	res, err := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != TrapIllegalInstr {
		t.Fatalf("trap = %v, want illegal-instruction", res.Trap)
	}
}

func TestTrapInvalidRegister(t *testing.T) {
	p := &kasm.Program{Name: "badreg", Code: []isa.Word{
		isa.Instruction{Op: isa.OpIADD, Pred: isa.PT, Rd: 100, Rs1: 0, Rs2: 0}.Encode(),
	}}
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Trap != TrapInvalidReg {
		t.Fatalf("trap = %v, want invalid-register", res.Trap)
	}
}

func TestTrapBadGlobalAddress(t *testing.T) {
	b := kasm.New("oob")
	b.MOVI(0, -5)
	b.GLD(1, 0, 0)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Trap != TrapBadGlobalAddr {
		t.Fatalf("trap = %v, want bad-global-address", res.Trap)
	}
}

func TestTrapBadSharedAddress(t *testing.T) {
	b := kasm.New("oobshared")
	b.MOVI(0, 100)
	b.LDS(1, 0, 0)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{
		Grid: Dim3{X: 1}, Block: Dim3{X: 1}, SharedWords: 16,
	})
	if res.Trap != TrapBadSharedAddr {
		t.Fatalf("trap = %v, want bad-shared-address", res.Trap)
	}
}

func TestTrapWatchdogOnInfiniteLoop(t *testing.T) {
	b := kasm.New("spin")
	b.Label("spin").BRA("spin")
	b.EXIT()
	cfg := DefaultConfig()
	cfg.MaxIssues = 1000
	d := NewDevice(cfg)
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Trap != TrapWatchdog {
		t.Fatalf("trap = %v, want watchdog-timeout", res.Trap)
	}
}

func TestTrapBadBranchTarget(t *testing.T) {
	p := &kasm.Program{Name: "badbra", Code: []isa.Word{
		isa.Instruction{Op: isa.OpBRA, Pred: isa.PT, Imm: 999}.Encode(),
		isa.Instruction{Op: isa.OpEXIT, Pred: isa.PT}.Encode(),
	}}
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Trap != TrapBadPC {
		t.Fatalf("trap = %v, want bad-pc", res.Trap)
	}
}

func TestTrapFallOffEnd(t *testing.T) {
	p := &kasm.Program{Name: "noexit", Code: []isa.Word{
		isa.Instruction{Op: isa.OpNOP, Pred: isa.PT}.Encode(),
	}}
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Trap != TrapBadPC {
		t.Fatalf("trap = %v, want bad-pc", res.Trap)
	}
}

func TestBarrierDiscountsExitedLanes(t *testing.T) {
	// Lane 0 skips the barrier and exits early; the barrier must still
	// release for the remaining lanes (exited threads are discounted from
	// barrier arrival, as on real hardware). Genuinely stuck barriers
	// surface as watchdog timeouts.
	b := kasm.New("earlyexit")
	b.S2R(0, isa.SRTidX)
	b.MOVI(1, 0)
	b.ISETP(isa.CmpEQ, 0, 0, 1)
	b.P(0).BRA("skip")
	b.BAR()
	b.Label("skip").EXIT()
	cfg := DefaultConfig()
	cfg.MaxIssues = 10000
	d := NewDevice(cfg)
	// Two warps so the barrier is genuinely cross-warp.
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 64}})
	if res.Hung() {
		t.Fatalf("barrier with exited lane hung: %v", res)
	}
}

func TestSpecialRegisters(t *testing.T) {
	b := kasm.New("sr")
	b.S2R(0, isa.SRTidX)
	b.S2R(1, isa.SRCtaidX)
	b.S2R(2, isa.SRNTidX)
	b.S2R(3, isa.SRLaneID)
	b.S2R(4, isa.SRWarpID)
	// global[ctaid*ntid + tid] = warpid*1000 + laneid
	b.IMUL(5, 1, 2)
	b.IADD(5, 5, 0)
	b.MOVI(6, 1000)
	b.IMUL(7, 4, 6)
	b.IADD(7, 7, 3)
	b.GST(5, 0, 7)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 2}, Block: Dim3{X: 64}})
	if err != nil || res.Hung() {
		t.Fatalf("err=%v res=%v", err, res)
	}
	for g := 0; g < 128; g++ {
		warpID := (g % 64) / 32
		lane := g % 32
		want := uint32(warpID*1000 + lane)
		if d.Global[g] != want {
			t.Fatalf("global[%d] = %d, want %d", g, d.Global[g], want)
		}
	}
}

func TestSFUAndConversions(t *testing.T) {
	b := kasm.New("sfu")
	b.MOVI(0, 1)
	b.I2F(1, 0) // 1.0
	b.FSIN(2, 1)
	b.FEXP(3, 1)
	b.FSQRT(4, 1)
	b.FRCP(5, 1)
	b.MOVI(6, 0)
	b.GST(6, 0, 2)
	b.GST(6, 1, 3)
	b.GST(6, 2, 4)
	b.GST(6, 3, 5)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	checks := []struct {
		idx  int
		want float64
	}{{0, math.Sin(1)}, {1, 2}, {2, 1}, {3, 1}}
	for _, c := range checks {
		got := float64(math.Float32frombits(d.Global[c.idx]))
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("sfu[%d] = %v, want %v", c.idx, got, c.want)
		}
	}
}

func TestHookRewritesInstruction(t *testing.T) {
	// An IOC-style hook that turns FADD into FMUL.
	b := kasm.New("hooked")
	b.MOVI(0, 3)
	b.I2F(0, 0)
	b.MOVI(1, 4)
	b.I2F(1, 1)
	b.FADD(2, 0, 1)
	b.MOVI(3, 0)
	b.GST(3, 0, 2)
	b.EXIT()
	p := b.MustBuild()
	d := NewDevice(DefaultConfig())
	d.AddHook(HookFuncs{BeforeFn: func(ctx *InstrCtx) {
		if ctx.Instr.Op == isa.OpFADD {
			ctx.Instr.Op = isa.OpFMUL
		}
	}})
	res, _ := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	if got := math.Float32frombits(d.Global[0]); got != 12 {
		t.Fatalf("hooked result = %v, want 12 (3*4)", got)
	}
}

func TestHookAfterSeesExecMask(t *testing.T) {
	var seen []uint32
	d := NewDevice(DefaultConfig())
	d.AddHook(HookFuncs{AfterFn: func(ctx *InstrCtx) {
		if ctx.Instr.Op == isa.OpGST {
			seen = append(seen, ctx.ExecMask)
		}
	}})
	launchVecAdd(t, d, 5, 32)
	if len(seen) != 1 {
		t.Fatalf("saw %d GSTs, want 1", len(seen))
	}
	if seen[0] != 0x1F {
		t.Fatalf("GST exec mask = %#x, want 0x1f", seen[0])
	}
}

func TestHookCorruptionToInvalidOpcodeTraps(t *testing.T) {
	d := NewDevice(DefaultConfig())
	d.AddHook(HookFuncs{BeforeFn: func(ctx *InstrCtx) {
		if ctx.Instr.Op == isa.OpFADD {
			ctx.Instr.Op = isa.Opcode(0xEE) // IVOC
		}
	}})
	res := launchVecAdd(t, d, 5, 32)
	if res.Trap != TrapIllegalInstr {
		t.Fatalf("trap = %v, want illegal-instruction", res.Trap)
	}
}

func TestPredicatedSELPair(t *testing.T) {
	// R2 = (tid < 16) ? 7 : 9 via SEL + PNot SEL.
	b := kasm.New("sel")
	b.S2R(0, isa.SRTidX)
	b.MOVI(1, 16)
	b.ISETP(isa.CmpLT, 0, 0, 1)
	b.MOVI(3, 7)
	b.MOVI(4, 9)
	b.P(0).Op2(isa.OpSEL, 2, 3, 4)
	b.PNot(0).Op2(isa.OpSEL, 2, 4, 3)
	b.GST(0, 0, 2)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	for i := 0; i < 32; i++ {
		want := uint32(7)
		if i >= 16 {
			want = 9
		}
		if d.Global[i] != want {
			t.Fatalf("sel[%d] = %d, want %d", i, d.Global[i], want)
		}
	}
}

func TestRZSemantics(t *testing.T) {
	b := kasm.New("rz")
	b.MOVI(0, 42)
	b.Op2(isa.OpIADD, isa.RZ, 0, 0) // write to RZ discarded
	b.Op2(isa.OpIADD, 1, isa.RZ, 0) // R1 = 0 + 42
	b.MOVI(2, 0)
	b.GST(2, 0, 1)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	if d.Global[0] != 42 {
		t.Fatalf("RZ add = %d, want 42", d.Global[0])
	}
}

func TestLaunchValidation(t *testing.T) {
	d := NewDevice(DefaultConfig())
	p := vecAddProgram()
	if _, err := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}, SharedWords: 1 << 30}); err == nil {
		t.Error("oversized shared memory accepted")
	}
	if _, err := d.Launch(p, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 48*32 + 1}}); err == nil {
		t.Error("oversized block accepted")
	}
	if _, err := d.Launch(&kasm.Program{Name: "empty"}, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}}); err == nil {
		t.Error("empty program accepted")
	}
}

// TestLaunchValidationRejectsNegativeExtents: a negative component is
// never a launch, whatever sign the product of the extent has.
func TestLaunchValidationRejectsNegativeExtents(t *testing.T) {
	one := Dim3{X: 1}
	for _, tc := range []struct {
		name string
		lc   LaunchConfig
		ok   bool
	}{
		{"unit", LaunchConfig{Grid: one, Block: one}, true},
		{"zero components count as one", LaunchConfig{Grid: Dim3{}, Block: Dim3{X: 32, Z: 0}}, true},
		{"3-D", LaunchConfig{Grid: Dim3{2, 2, 2}, Block: Dim3{4, 4, 2}, SharedWords: 16}, true},
		{"grid, positive product", LaunchConfig{Grid: Dim3{-1, -1, 1}, Block: one}, false},
		{"grid, negative product", LaunchConfig{Grid: Dim3{X: -2}, Block: one}, false},
		{"grid z", LaunchConfig{Grid: Dim3{1, 1, -1}, Block: one}, false},
		{"block, positive product", LaunchConfig{Grid: one, Block: Dim3{-4, -8, 1}}, false},
		{"block y", LaunchConfig{Grid: one, Block: Dim3{Y: -1}}, false},
		{"shared words", LaunchConfig{Grid: one, Block: one, SharedWords: -1}, false},
	} {
		err := tc.lc.Validate(DefaultConfig())
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", tc.name, tc.lc, err, tc.ok)
		}
		if _, lerr := NewDevice(DefaultConfig()).Launch(vecAddProgram(), tc.lc); (lerr == nil) != tc.ok {
			t.Errorf("%s: Launch = %v, want ok=%v", tc.name, lerr, tc.ok)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{NumSMs: 1},
		{NumSMs: 1, PPBsPerSM: 1},
		{NumSMs: 1, PPBsPerSM: 1, MaxWarpsPerSM: 4},
		{NumSMs: 1, PPBsPerSM: 1, MaxWarpsPerSM: 4, GlobalMemWords: 64, SharedMemWords: -1, MaxIssues: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestPPBAssignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PPBsPerSM = 4
	d := NewDevice(cfg)
	var ppbs []int
	d.AddHook(HookFuncs{BeforeFn: func(ctx *InstrCtx) {
		if ctx.PC == 0 && ctx.Instr.Op == isa.OpS2R {
			ppbs = append(ppbs, ctx.W.PPB)
		}
	}})
	b := kasm.New("ppb")
	b.S2R(0, isa.SRWarpID)
	b.EXIT()
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 8 * 32}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	if len(ppbs) != 8 {
		t.Fatalf("saw %d warps, want 8", len(ppbs))
	}
	for w, ppb := range ppbs {
		if ppb != w%4 {
			t.Errorf("warp %d on PPB %d, want %d", w, ppb, w%4)
		}
	}
}

func TestResultStringForms(t *testing.T) {
	ok := Result{Issues: 10}
	if s := ok.String(); s == "" || ok.Hung() {
		t.Errorf("ok result: %q hung=%v", s, ok.Hung())
	}
	bad := Result{Trap: TrapWatchdog, TrapInfo: "budget", Issues: 5}
	if s := bad.String(); s == "" || !bad.Hung() {
		t.Errorf("trap result: %q hung=%v", s, bad.Hung())
	}
	for tr := TrapNone; tr <= TrapDeadlock; tr++ {
		if tr.String() == "" {
			t.Errorf("trap %d has empty name", int(tr))
		}
	}
}

func TestDim3Count(t *testing.T) {
	if (Dim3{}).Count() != 1 {
		t.Error("zero Dim3 must count 1 (implicit dims)")
	}
	if (Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Error("Dim3 count wrong")
	}
	if (Dim3{X: 5}).String() != "(5,0,0)" {
		t.Error("Dim3 String wrong")
	}
}

func TestWriteReadGlobalRoundTrip(t *testing.T) {
	d := NewDevice(DefaultConfig())
	data := []uint32{1, 2, 3, 4, 5}
	d.WriteGlobal(100, data)
	got := d.ReadGlobal(100, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("ReadGlobal[%d] = %d", i, got[i])
		}
	}
	d.ResetGlobal()
	if d.ReadGlobal(100, 1)[0] != 0 {
		t.Fatal("ResetGlobal did not clear")
	}
}

func TestShiftSemantics(t *testing.T) {
	b := kasm.New("shifts")
	b.MOVI(0, -8) // 0xFFFFFFF8
	b.SHR(1, 0, 1)
	b.SHL(2, 0, 4)
	b.MOVI(3, 0)
	b.GST(3, 0, 1)
	b.GST(3, 1, 2)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	if d.Global[0] != 0xFFFFFFF8>>1 {
		t.Errorf("SHR is not logical: %#x", d.Global[0])
	}
	if d.Global[1] != 0xFFFFFF80 {
		t.Errorf("SHL wrong: %#x", d.Global[1])
	}
}

func TestFMinMaxSemantics(t *testing.T) {
	b := kasm.New("minmax")
	b.MOVI(0, -3)
	b.I2F(0, 0) // -3.0
	b.MOVI(1, 2)
	b.I2F(1, 1) // 2.0
	b.Op2(isa.OpFMIN, 2, 0, 1)
	b.FMAX(3, 0, 1)
	b.MOVI(4, 0)
	b.GST(4, 0, 2)
	b.GST(4, 1, 3)
	b.EXIT()
	d := NewDevice(DefaultConfig())
	res, _ := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
	if res.Hung() {
		t.Fatalf("trap: %v", res)
	}
	if math.Float32frombits(d.Global[0]) != -3 || math.Float32frombits(d.Global[1]) != 2 {
		t.Errorf("fmin/fmax = %v/%v", math.Float32frombits(d.Global[0]),
			math.Float32frombits(d.Global[1]))
	}
}
