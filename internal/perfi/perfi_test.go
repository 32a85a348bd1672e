package perfi

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/workloads"
)

// runInjected executes one workload job twice — golden and with a single
// injector — and classifies the outcome.
func runInjected(t *testing.T, w workloads.Workload, d errmodel.Descriptor, seed int64) workloads.Outcome {
	t.Helper()
	job := w.Build(rand.New(rand.NewSource(seed)))
	dev := gpu.NewDevice(gpu.DefaultConfig())
	golden, err := job.Run(dev)
	if err != nil || golden.Hung() {
		t.Fatalf("golden run: err=%v res=%+v", err, golden)
	}
	cfg := gpu.DefaultConfig()
	cfg.MaxIssues = golden.Issues*8 + 10000
	fdev := gpu.NewDevice(cfg)
	fdev.AddHook(New(d, rand.New(rand.NewSource(seed))))
	rr, err := job.Run(fdev)
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	return workloads.Classify(golden.Output, rr)
}

func allLanesWarp0(m errmodel.Model) errmodel.Descriptor {
	return errmodel.Descriptor{Model: m, Warps: []int{0}, Threads: 0xFFFFFFFF}
}

func TestIVOCAlwaysDUE(t *testing.T) {
	// Paper: IVOC generates an invalid-instruction exception in all cases.
	d := allLanesWarp0(errmodel.IVOC)
	if got := runInjected(t, workloads.VectorAdd{}, d, 1); got != workloads.OutcomeDUE {
		t.Fatalf("IVOC outcome = %v, want DUE", got)
	}
}

// TestIVRAAlwaysDUEWhenActivated: an out-of-bounds register address traps
// in the destination and in the source mode, and the issue that traps
// counts as an activation.
func TestIVRAAlwaysDUEWhenActivated(t *testing.T) {
	job := workloads.MxM{}.Build(rand.New(rand.NewSource(2)))
	for loc := range 2 {
		d := allLanesWarp0(errmodel.IVRA)
		d.BitErrMask = isa.RegsPerThread
		d.ErrOperLoc = loc
		inj := New(d, nil)
		dev := gpu.NewDevice(gpu.DefaultConfig())
		dev.AddHook(inj)
		rr, err := job.Run(dev)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Trap != gpu.TrapInvalidReg || inj.Activations == 0 {
			t.Errorf("IVRA on operand %d: %v %s with %d activations, want %v and at least one",
				loc, rr.Trap, rr.TrapInfo, inj.Activations, gpu.TrapInvalidReg)
		}
	}
}

func TestIOCCorruptsOutput(t *testing.T) {
	d := allLanesWarp0(errmodel.IOC)
	d.ReplOp = isa.OpISUB
	got := runInjected(t, workloads.VectorAdd{}, d, 3)
	if got == workloads.OutcomeMasked {
		t.Fatalf("IOC on vectoradd masked; replacing every INT/FP op must corrupt")
	}
}

func TestIATDisturbsThreadIndexing(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.IAT, Warps: []int{0},
		Threads: 0x2, BitErrMask: 4} // lane 1's tid reads xor 4
	got := runInjected(t, workloads.VectorAdd{}, d, 4)
	if got == workloads.OutcomeMasked {
		t.Fatalf("IAT outcome = %v, want SDC or DUE", got)
	}
}

func TestIMDMaskedWithoutSharedMemory(t *testing.T) {
	// Paper: codes that do not use shared memory mask 100% of IMD
	// injections (vectoradd is one of the examples).
	d := errmodel.Descriptor{Model: errmodel.IMD, Warps: []int{0},
		Threads: 0xF, BitErrMask: 1}
	if got := runInjected(t, workloads.VectorAdd{}, d, 5); got != workloads.OutcomeMasked {
		t.Fatalf("IMD on vectoradd = %v, want Masked", got)
	}
}

func TestIMDAffectsSharedMemoryCode(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.IMD, Warps: []int{0, 1},
		Threads: 0xFFFFFFFF, BitErrMask: 1 << 3}
	if got := runInjected(t, workloads.GEMM{}, d, 6); got == workloads.OutcomeMasked {
		t.Fatalf("IMD on gemm masked; gemm stages tiles through shared memory")
	}
}

func TestWVOnUntouchedPredicateMasked(t *testing.T) {
	// Target predicate P5: vectoradd only writes P0, so the injection
	// never activates.
	d := errmodel.Descriptor{Model: errmodel.WV, Warps: []int{0},
		Threads: 0xFFFFFFFF, BitErrMask: 5}
	if got := runInjected(t, workloads.VectorAdd{}, d, 7); got != workloads.OutcomeMasked {
		t.Fatalf("WV on P5 = %v, want Masked", got)
	}
}

func TestWVOnGuardPredicateCorrupts(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.WV, Warps: []int{0},
		Threads: 0x1, BitErrMask: 0} // P0 is vectoradd's bounds guard
	if got := runInjected(t, workloads.VectorAdd{}, d, 8); got == workloads.OutcomeMasked {
		t.Fatalf("WV on P0 masked; corrupting the bounds guard must propagate")
	}
}

func TestIALDisableLaneDropsResults(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.IAL, Warps: []int{0},
		Threads: 0x1, ErrOperLoc: 0}
	if got := runInjected(t, workloads.VectorAdd{}, d, 9); got == workloads.OutcomeMasked {
		t.Fatalf("IAL-disable masked; lane 0's results are discarded")
	}
}

func TestInjectorRestoresStateOnUntargetedWarps(t *testing.T) {
	// An injector aimed at a warp slot the kernel never uses must be a
	// perfect no-op (Masked).
	for _, m := range errmodel.Injectable() {
		d := errmodel.Descriptor{Model: m, Warps: []int{40},
			Threads: 0xFFFFFFFF, BitErrMask: 1, ReplOp: isa.OpISUB, ErrOperLoc: 1}
		if got := runInjected(t, workloads.VectorAdd{}, d, 10); got != workloads.OutcomeMasked {
			t.Errorf("%v on unused warp = %v, want Masked", m, got)
		}
	}
}

func TestIRASourceModeRestoresOperand(t *testing.T) {
	// IRA source mode borrows a wrong register's value only for the
	// instruction itself; a mask of 0 combined with targeting nothing
	// would be a no-op, so instead check determinism: same descriptor,
	// same seed => same outcome.
	d := allLanesWarp0(errmodel.IRA)
	d.ErrOperLoc = 1
	d.BitErrMask = 3
	o1 := runInjected(t, workloads.MxM{}, d, 11)
	o2 := runInjected(t, workloads.MxM{}, d, 11)
	if o1 != o2 {
		t.Fatalf("IRA injection not deterministic: %v vs %v", o1, o2)
	}
}

func TestCampaignShapes(t *testing.T) {
	// Scaled-down Fig. 10 campaign on two contrasting apps; checks the
	// paper's qualitative findings.
	cfg := Config{Injections: 24, Seed: 99}
	apps := []workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}}
	results, err := RunSuite(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]*AppResult{}
	for _, r := range results {
		byApp[r.App] = r
	}

	// Operation errors are DUE-dominated (paper: 87-95% of operation-error
	// injections DUE on average).
	agg := Average(results)
	op := agg[errmodel.IVRA]
	if op.Total() > 0 && op.DUE == 0 {
		t.Errorf("IVRA produced no DUEs across campaign")
	}

	// IMD fully masked on vectoradd (no shared memory)...
	va := byApp["vectoradd"].ByModel[errmodel.IMD]
	if va.SDC+va.DUE != 0 {
		t.Errorf("vectoradd IMD EPR = %d/%d, want 0", va.SDC+va.DUE, va.Total())
	}
	// ...but active on gemm (shared-memory tiles).
	ge := byApp["gemm"].ByModel[errmodel.IMD]
	if ge.SDC+ge.DUE == 0 {
		t.Errorf("gemm IMD fully masked, want some propagation")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := Config{Injections: 8, Seed: 5,
		Models: []errmodel.Model{errmodel.IAT, errmodel.IOC}}
	r1, err := RunApp(workloads.VectorAdd{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunApp(workloads.VectorAdd{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m, t1 := range r1.ByModel {
		if t2 := r2.ByModel[m]; t1 != t2 {
			t.Errorf("%v: campaign not deterministic: %+v vs %+v", m, t1, t2)
		}
	}
}

func TestTallyRates(t *testing.T) {
	tl := Tally{Masked: 1, SDC: 2, DUE: 1}
	m, s, d := tl.Rate()
	if m != 0.25 || s != 0.5 || d != 0.25 {
		t.Errorf("Rate() = %v,%v,%v", m, s, d)
	}
	var empty Tally
	if m, s, d := empty.Rate(); m != 0 || s != 0 || d != 0 {
		t.Error("empty tally rates must be zero")
	}
}
