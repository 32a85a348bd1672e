package gpu

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
)

// sparseMask draws lane sets that are often empty, full or nearly so —
// the cases a mask expression can get wrong and a uniform draw never hits.
func sparseMask(rng *rand.Rand) uint32 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return ^uint32(0)
	case 2:
		return rng.Uint32() & rng.Uint32() & rng.Uint32()
	default:
		return rng.Uint32()
	}
}

// TestLaneMaskQueriesMatchPerLaneReference checks every lane-set query of
// Warp against a definition written out lane by lane, over random states.
func TestLaneMaskQueriesMatchPerLaneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bit := func(m uint32, lane int) bool { return m&(1<<lane) != 0 }
	for trial := 0; trial < 5000; trial++ {
		var w Warp
		w.Valid, w.Exited, w.Barrier = sparseMask(rng), sparseMask(rng), sparseMask(rng)
		span := int32(1 + rng.Intn(4)) // few distinct PCs, so ties are common
		for lane := range w.PC {
			w.PC[lane] = rng.Int31n(span) - 1
		}

		var wantMask uint32
		wantPC, wantOK := int32(1<<31-1), false
		wantDone, wantAllAtBarrier, anyLive := true, true, false
		for lane := 0; lane < isa.WarpSize; lane++ {
			live := bit(w.Valid, lane) && !bit(w.Exited, lane)
			if w.LaneLive(lane) != live {
				t.Fatalf("trial %d: LaneLive(%d) = %v, want %v", trial, lane, !live, live)
			}
			if !live {
				continue
			}
			anyLive, wantDone = true, false
			if !bit(w.Barrier, lane) {
				wantAllAtBarrier = false
				wantOK = true
				wantPC = min(wantPC, w.PC[lane])
			}
		}
		wantAllAtBarrier = wantAllAtBarrier && anyLive
		for lane := 0; lane < isa.WarpSize; lane++ {
			if bit(w.Valid, lane) && !bit(w.Exited, lane) && !bit(w.Barrier, lane) && w.PC[lane] == wantPC {
				wantMask |= 1 << lane
			}
		}
		if !wantOK {
			wantMask, wantPC = 0, 0
		}

		mask, pc, ok := w.schedulable()
		if mask != wantMask || pc != wantPC || ok != wantOK {
			t.Fatalf("trial %d: schedulable() = %#x, %d, %v; want %#x, %d, %v (valid %#x exited %#x barrier %#x)",
				trial, mask, pc, ok, wantMask, wantPC, wantOK, w.Valid, w.Exited, w.Barrier)
		}
		if w.Done() != wantDone {
			t.Fatalf("trial %d: Done() = %v, want %v", trial, !wantDone, wantDone)
		}
		if w.allAtBarrier() != wantAllAtBarrier {
			t.Fatalf("trial %d: allAtBarrier() = %v, want %v", trial, !wantAllAtBarrier, wantAllAtBarrier)
		}
	}
}

// TestPredMaskMatchesPerLanePredicates drives SetPred lane by lane beside
// a shadow array and checks Pred and predMask against it.
func TestPredMaskMatchesPerLanePredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var w Warp
	var shadow [isa.WarpSize][isa.NumPredicates]bool
	for step := 0; step < 4000; step++ {
		lane, p, v := rng.Intn(isa.WarpSize), rng.Intn(isa.NumPredicates+1), rng.Intn(2) == 1
		w.SetPred(lane, p, v) // p == PT is discarded
		if p != isa.PT {
			shadow[lane][p] = v
		}
		if step%50 != 0 {
			continue
		}
		for p := 0; p <= isa.PT; p++ {
			for _, neg := range []bool{false, true} {
				var want uint32
				for lane := 0; lane < isa.WarpSize; lane++ {
					holds := p == isa.PT || shadow[lane][p]
					if w.Pred(lane, p) != holds {
						t.Fatalf("step %d: Pred(%d, P%d) = %v, want %v", step, lane, p, !holds, holds)
					}
					if holds != neg {
						want |= 1 << lane
					}
				}
				if got := w.predMask(p, neg); got != want {
					t.Fatalf("step %d: predMask(P%d, neg=%v) = %#x, want %#x", step, p, neg, got, want)
				}
			}
		}
	}
}

// RandomPrograms draws count random programs of valid instructions (branches,
// barriers, exits, guards, partial warps) with a launch configuration each
// and hands them to run. Exported for the package's external tests.
func RandomPrograms(seed int64, count int, run func(trial int, prog *kasm.Program, lc LaunchConfig)) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < count; trial++ {
		n := 2 + rng.Intn(24)
		code := make([]isa.Word, n)
		for i := range code {
			code[i] = isa.Instruction{
				Op:    isa.Opcode(rng.Intn(isa.Count())),
				Pred:  uint8(rng.Intn(16)),
				Rd:    uint8(rng.Intn(isa.RegsPerThread)),
				Rs1:   uint8(rng.Intn(isa.RegsPerThread)),
				Rs2:   uint8(rng.Intn(isa.RegsPerThread)),
				Rs3:   uint8(rng.Intn(isa.RegsPerThread)),
				Imm:   uint16(rng.Intn(n)),
				Flags: uint8(rng.Intn(16)),
			}.Encode()
		}
		code[n-1] = isa.Instruction{Op: isa.OpEXIT, Pred: isa.PT}.Encode()
		run(trial, &kasm.Program{Name: "fuzz", Code: code}, LaunchConfig{
			Grid: Dim3{X: 1}, Block: Dim3{X: 1 + rng.Intn(96)},
			Params: []uint32{1, 2, 3, 4}, SharedWords: 16,
		})
	}
}

// TestIssueMaskInvariants runs those random programs and checks on every
// issue that Exited ⊆ Valid, Barrier ⊆ live, Mask ⊆ schedulable lanes
// and ExecMask ⊆ Mask.
func TestIssueMaskInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxIssues = 5000
	dev := NewDevice(cfg)
	issues := 0
	dev.AddHook(HookFuncs{
		BeforeFn: func(ctx *InstrCtx) {
			w := ctx.W
			if w.Exited&^w.Valid != 0 {
				t.Fatalf("Exited %#x not within Valid %#x", w.Exited, w.Valid)
			}
			if w.Barrier&^(w.Valid&^w.Exited) != 0 {
				t.Fatalf("Barrier %#x holds a dead lane (valid %#x exited %#x)", w.Barrier, w.Valid, w.Exited)
			}
			if ctx.Mask == 0 || ctx.Mask&^(w.Valid&^w.Exited&^w.Barrier) != 0 {
				t.Fatalf("Mask %#x not a non-empty set of schedulable lanes (valid %#x exited %#x barrier %#x)",
					ctx.Mask, w.Valid, w.Exited, w.Barrier)
			}
		},
		AfterFn: func(ctx *InstrCtx) {
			issues++
			if ctx.ExecMask&^ctx.Mask != 0 {
				t.Fatalf("ExecMask %#x not within Mask %#x", ctx.ExecMask, ctx.Mask)
			}
		},
	})
	RandomPrograms(15, 300, func(trial int, prog *kasm.Program, lc LaunchConfig) {
		if _, err := dev.Launch(prog, lc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	})
	if issues < 1000 {
		t.Fatalf("only %d issues observed; the programs do not exercise the scheduler", issues)
	}
}

// TestDisabledLaneAdvancesButCommitsNothing: a lane in DisableMask stays
// in ExecMask and moves to the next PC with its warp, but neither its
// register write nor its store lands.
func TestDisabledLaneAdvancesButCommitsNothing(t *testing.T) {
	const disabled = 0xAAAAAAAA // odd lanes
	b := kasm.New("disable")
	b.S2R(0, isa.SRTidX)
	b.MOVI(1, 7)
	b.GST(0, 0, 1) // global[tid] = R1
	b.EXIT()
	dev := NewDevice(DefaultConfig())
	var before [isa.WarpSize]uint32
	checked := 0
	dev.AddHook(HookFuncs{
		BeforeFn: func(ctx *InstrCtx) {
			if ctx.Instr.Op != isa.OpMOV32I && ctx.Instr.Op != isa.OpGST {
				return
			}
			ctx.DisableMask = disabled
			for lane := range before {
				before[lane] = ctx.W.Reg(lane, 1)
			}
		},
		AfterFn: func(ctx *InstrCtx) {
			if ctx.DisableMask == 0 {
				return
			}
			checked++
			if ctx.Mask != ^uint32(0) || ctx.ExecMask != ctx.Mask {
				t.Fatalf("pc %d: Mask %#x ExecMask %#x, want all lanes in both", ctx.PC, ctx.Mask, ctx.ExecMask)
			}
			for lane := 0; lane < isa.WarpSize; lane++ {
				if ctx.W.PC[lane] != ctx.PC+1 {
					t.Fatalf("pc %d: lane %d sits at pc %d, want %d", ctx.PC, lane, ctx.W.PC[lane], ctx.PC+1)
				}
				if ctx.Instr.Op != isa.OpMOV32I {
					continue
				}
				want := uint32(7)
				if disabled&(1<<lane) != 0 {
					want = before[lane]
				}
				if got := ctx.W.Reg(lane, 1); got != want {
					t.Fatalf("lane %d: R1 = %#x after the disabled MOV, want %#x", lane, got, want)
				}
			}
		},
	})
	res, err := dev.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}})
	if err != nil || res.Hung() {
		t.Fatalf("err=%v res=%v", err, res)
	}
	if checked != 2 {
		t.Fatalf("hook saw %d disabled issues, want 2 (MOV32I, GST)", checked)
	}
	for lane := 0; lane < isa.WarpSize; lane++ {
		want := uint32(7)
		if disabled&(1<<lane) != 0 {
			want = 0
		}
		if dev.Global[lane] != want {
			t.Fatalf("global[%d] = %d, want %d", lane, dev.Global[lane], want)
		}
	}
}
