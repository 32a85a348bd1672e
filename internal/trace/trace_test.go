package trace

import (
	"math/rand"
	"strings"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

func record(t *testing.T, hook gpu.Hook) ([]Event, *workloads.RunResult) {
	t.Helper()
	job := workloads.VectorAdd{}.Build(rand.New(rand.NewSource(1)))
	dev := gpu.NewDevice(gpu.DefaultConfig())
	rec := &Recorder{}
	if hook != nil {
		dev.AddHook(hook)
	}
	dev.AddHook(rec)
	rr, err := job.Run(dev)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events, rr
}

func TestIdenticalTracesDoNotDiverge(t *testing.T) {
	g1, _ := record(t, nil)
	g2, _ := record(t, nil)
	d := Diff(g1, g2)
	if d.Diverged() {
		t.Fatalf("golden traces diverged at %d:\n%s", d.Index, Render(d, g1, g2, 2))
	}
	if len(g1) == 0 {
		t.Fatal("empty trace")
	}
}

func TestInjectionShowsDivergence(t *testing.T) {
	golden, _ := record(t, nil)
	desc := errmodel.Descriptor{Model: errmodel.WV, Warps: []int{0},
		Threads: 0xFFFFFFFF, BitErrMask: 0}
	faulty, _ := record(t, perfi.New(desc, nil))
	d := Diff(golden, faulty)
	if !d.Diverged() {
		t.Fatal("WV injection on the guard predicate produced no control-flow divergence")
	}
	out := Render(d, golden, faulty, 2)
	if !strings.Contains(out, "first divergence") || !strings.Contains(out, "=>") {
		t.Errorf("render missing markers:\n%s", out)
	}
	_, maskDiffs, flips := MaskDriftStats(golden, faulty)
	if maskDiffs == 0 || flips == 0 {
		t.Errorf("no mask drift after WV corruption: diffs=%d flips=%d", maskDiffs, flips)
	}
}

// storeCorruptor flips one bit of the value every GST writes on lane 0 —
// a pure data fault that cannot touch control flow.
type storeCorruptor struct{ saved uint32 }

func (h *storeCorruptor) Before(ctx *gpu.InstrCtx) {
	if ctx.Instr.Op.String() == "GST" && ctx.Mask&1 != 0 {
		h.saved = ctx.W.Reg(0, ctx.Instr.Rs2)
		ctx.W.SetReg(0, ctx.Instr.Rs2, h.saved^(1<<20))
	}
}

func (h *storeCorruptor) After(ctx *gpu.InstrCtx) {
	if ctx.Instr.Op.String() == "GST" && ctx.Mask&1 != 0 {
		ctx.W.SetReg(0, ctx.Instr.Rs2, h.saved)
	}
}

func TestPureDataCorruptionShowsNoControlDivergence(t *testing.T) {
	// A store-data fault changes memory but not the issue trace — the
	// exact blind spot the mitigation study attributes to CFC.
	golden, grr := record(t, nil)
	faulty, frr := record(t, &storeCorruptor{})
	d := Diff(golden, faulty)
	if d.Diverged() {
		t.Fatalf("data-only fault changed the issue trace:\n%s", Render(d, golden, faulty, 2))
	}
	if workloads.Classify(grr.Output, frr) != workloads.OutcomeSDC {
		t.Fatal("store-data corruption produced no SDC")
	}
}

func TestIALDisableDivergesThroughIndexing(t *testing.T) {
	// IAL-disable discards *all* of a lane's results — including the
	// thread-index arithmetic that feeds the bounds guard — so, unlike a
	// pure data fault, its control flow diverges and CFC has a chance.
	golden, _ := record(t, nil)
	desc := errmodel.Descriptor{Model: errmodel.IAL, Warps: []int{0},
		Threads: 0x1, ErrOperLoc: 0}
	faulty, _ := record(t, perfi.New(desc, nil))
	if d := Diff(golden, faulty); !d.Diverged() {
		t.Fatal("IAL-disable left the issue trace intact (expected divergence via corrupted indexing)")
	}
}

func TestTruncatedTraceDiverges(t *testing.T) {
	g, _ := record(t, nil)
	d := Diff(g, g[:len(g)-3])
	if !d.Diverged() || d.Index != len(g)-3 {
		t.Fatalf("truncation divergence = %+v", d)
	}
	if !strings.Contains(Render(d, g, g[:len(g)-3], 1), "<end>") {
		t.Error("render missing <end> marker")
	}
}

func TestRecorderCap(t *testing.T) {
	job := workloads.VectorAdd{}.Build(rand.New(rand.NewSource(1)))
	dev := gpu.NewDevice(gpu.DefaultConfig())
	rec := &Recorder{Cap: 10}
	dev.AddHook(rec)
	if _, err := job.Run(dev); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 10 {
		t.Errorf("captured %d events, cap 10", len(rec.Events))
	}
	if rec.Total <= 10 {
		t.Errorf("total %d should exceed the cap", rec.Total)
	}
}
