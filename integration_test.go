// Integration tests asserting the paper's headline claims hold end to end
// on scaled-down campaigns. These complement the per-package unit tests:
// each test runs the real pipeline (profile → gate-level inject → classify
// → software inject) and checks the published findings' *shape*.
package gpufaultsim

import (
	"context"
	"math/rand"
	"testing"

	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/rtlfi"
	"gpufaultsim/internal/syndrome"
	"gpufaultsim/internal/workloads"
)

// TestHeadlineTwoLevelClaims runs the five-step methodology small and
// verifies the abstract's quantitative spine.
func TestHeadlineTwoLevelClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign")
	}
	res, err := campaign.RunTwoLevelCtx(context.Background(), campaign.TwoLevelConfig{
		Seed:        1,
		MaxPatterns: 96,
		Injections:  12,
		EvalApps: []workloads.Workload{
			workloads.VectorAdd{}, workloads.GEMM{}, workloads.BFS{},
			workloads.NW{}, cnn.LeNet{Digit: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Claim: "faults in the GPU parallelism management units can modify the
	// opcode, the addresses, and the status of thread(s) and warp(s)" —
	// the gate campaigns must produce models from all four groups.
	groups := map[errmodel.Group]bool{}
	for _, u := range res.Units {
		for _, row := range u.Report.Rows {
			groups[row.Model.Group()] = true
		}
	}
	for _, g := range errmodel.Groups() {
		if !groups[g] {
			t.Errorf("no %v errors produced by any unit", g)
		}
	}

	// Claim: "the large majority (up to 99%) of these hardware permanent
	// errors impacts the running software execution": average EPR must be
	// high (the paper measures 84.2% across apps and models).
	var epr float64
	n := 0
	for _, a := range res.Apps {
		for _, m := range errmodel.Injectable() {
			epr += a.EPR(m)
			n++
		}
	}
	epr /= float64(n)
	if epr < 0.5 {
		t.Errorf("average EPR %.2f; the paper reports 0.84", epr)
	}

	// Claim: "errors affecting the instruction operation or resource
	// management hang the code": operation-group DUE must dominate
	// operation-group SDC.
	agg := perfi.Average(res.Apps)
	var opSDC, opDUE int
	for m, tl := range agg {
		if m.Group() == errmodel.GroupOperation {
			opSDC += tl.SDC
			opDUE += tl.DUE
		}
	}
	if opDUE <= opSDC {
		t.Errorf("operation errors: DUE %d <= SDC %d (paper: DUE-dominant)", opDUE, opSDC)
	}

	// Claim: "45% of errors in the parallelism management or control-flow
	// induce silent data corruptions": the pooled SDC rate for those
	// groups must be substantial.
	var pmSDC, pmTotal int
	for m, tl := range agg {
		if g := m.Group(); g == errmodel.GroupParallelMgmt || g == errmodel.GroupControlFlow {
			pmSDC += tl.SDC
			pmTotal += tl.Total()
		}
	}
	if frac := float64(pmSDC) / float64(pmTotal); frac < 0.25 || frac > 0.80 {
		t.Errorf("parallel-mgmt/control-flow SDC rate %.2f; the paper reports ~0.45", frac)
	}

	// Claim (discussion): WSC faults are dominated by parallel-management
	// error models.
	for _, u := range res.Units {
		if u.Unit.Name != "wsc" {
			continue
		}
		pm, all := 0, 0
		for _, row := range u.Report.Rows {
			all += row.FaultsCause
			if row.Model.Group() == errmodel.GroupParallelMgmt {
				pm += row.FaultsCause
			}
		}
		if all == 0 || float64(pm)/float64(all) < 0.4 {
			t.Errorf("WSC parallel-management share %d/%d below the paper's majority", pm, all)
		}
	}
}

// TestSingleFaultsProduceMultipleErrorModels checks the Figure-9 finding
// that one permanent fault can surface as several error models: every unit
// has such faults even at a small pattern count. Empty (non-nil) EvalApps
// skip the software step.
func TestSingleFaultsProduceMultipleErrorModels(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign")
	}
	res, err := campaign.RunTwoLevelCtx(context.Background(), campaign.TwoLevelConfig{
		Seed: 1, MaxPatterns: 48, EvalApps: []workloads.Workload{}, Collapse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 0 {
		t.Errorf("empty EvalApps ran %d software campaigns", len(res.Apps))
	}
	for _, u := range res.Units {
		if u.Collector.MultiModelFaults() == 0 {
			t.Errorf("%s: no fault produced more than one error model", u.Unit.Name)
		}
	}
}

// TestHeadlineRTLClaims checks the Section-4 findings.
func TestHeadlineRTLClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign")
	}
	cfg := rtlfi.MicroConfig{Seed: 2, ValuesPerRange: 1, LanesSampled: 2}

	// FP32 AVF < INT AVF (area masking).
	fadd, _ := rtlfi.MicroAVF(isaOpFADD, rtlfi.ModFP32, cfg)
	iadd, _ := rtlfi.MicroAVF(isaOpIADD, rtlfi.ModINT, cfg)
	if fadd.Masked <= iadd.Masked {
		t.Errorf("FP32 AVF %.2f >= INT AVF %.2f", 1-fadd.Masked, 1-iadd.Masked)
	}

	// Scheduler corrupts many threads per warp; its AVF sits below the
	// datapath modules on the thread-independent micro-benchmarks.
	sched, _ := rtlfi.MicroAVF(isaOpIADD, rtlfi.ModSched, cfg)
	if sched.Masked <= iadd.Masked {
		t.Errorf("scheduler AVF %.2f not below INT %.2f", 1-sched.Masked, 1-iadd.Masked)
	}
	if sched.AvgCorruptedThreads < 10 {
		t.Errorf("scheduler corrupts %.1f threads/warp; paper reports ~28", sched.AvgCorruptedThreads)
	}

	// Syndromes are non-Gaussian and power-law-like.
	_, pairs := rtlfi.MicroAVF(isaOpFMUL, rtlfi.ModFP32, cfg)
	res := rtlfi.RelativeErrors(pairs, true)
	if len(res) >= 12 {
		if _, p, err := syndrome.ShapiroWilk(res[:min(len(res), 5000)]); err == nil && p >= 0.05 {
			t.Errorf("syndrome passes normality (p=%.3f); the paper rejects it", p)
		}
		if _, err := syndrome.Fit(res); err != nil {
			t.Errorf("power-law fit failed: %v", err)
		}
	}

	// t-MxM reversal: scheduler AVF exceeds its micro-benchmark value.
	st := rtlfi.RunTMxMStudy(rtlfi.TMxMConfig{Seed: 3, ValuesPerTile: 1, SiteStride: 8})
	var schedT float64
	for _, row := range st.Rows {
		if row.Module == rtlfi.ModSched && row.Tile == rtlfi.TileRandom {
			schedT = 1 - row.Masked
		}
	}
	if schedT <= 1-sched.Masked {
		t.Errorf("t-MxM scheduler AVF %.2f not above micro %.2f (the paper's reversal)",
			schedT, 1-sched.Masked)
	}
}

// TestCNNCriticalSDCsExist: injections into LeNet must be able to flip the
// classification (the paper's CNN motivation).
func TestCNNCriticalSDCsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign")
	}
	net := cnn.LeNet{Digit: 3}
	job := net.Build(rand.New(rand.NewSource(1)))
	dev := newDev(job.Footprint() + 64)
	golden, err := job.Run(dev)
	if err != nil || golden.Hung() {
		t.Fatalf("golden: %v %v", err, golden)
	}
	rng := rand.New(rand.NewSource(5))
	critical := 0
	for i := 0; i < 40 && critical == 0; i++ {
		d := errmodel.Random(errmodel.IAT, rng, 8, 1)
		fdev := newDev(job.Footprint() + 64)
		fdev.AddHook(perfi.New(d, nil))
		rr, err := job.Run(fdev)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Hung() && cnn.CriticalSDCLeNet(golden.Output, rr.Output) {
			critical++
		}
	}
	if critical == 0 {
		t.Error("no IAT injection flipped LeNet's classification in 40 tries")
	}
}

// Local aliases keeping the integration file readable.
const (
	isaOpFADD = isa.OpFADD
	isaOpIADD = isa.OpIADD
	isaOpFMUL = isa.OpFMUL
)

func newDev(words int) *gpu.Device {
	cfg := gpu.DefaultConfig()
	cfg.GlobalMemWords = words
	return gpu.NewDevice(cfg)
}

// TestDiscussionCorrelation reproduces the Section-6.3 synthesis: WSC
// faults skew toward SDCs relative to the fetch unit, whose faults
// (operation errors) overwhelmingly hang the code.
func TestDiscussionCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign")
	}
	res, err := campaign.RunTwoLevelCtx(context.Background(), campaign.TwoLevelConfig{
		Seed: 4, MaxPatterns: 96, Injections: 16,
		EvalApps: []workloads.Workload{
			workloads.VectorAdd{}, workloads.GEMM{}, workloads.NW{},
			workloads.BFS{}, workloads.MergeSort{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fails := report.CorrelateUnits(res.Collectors(), res.FaultTotals(),
		perfi.Average(res.Apps))
	byUnit := map[string]report.UnitFailure{}
	for _, f := range fails {
		byUnit[f.Unit] = f
	}
	wsc, fetch := byUnit["wsc"], byUnit["fetch"]
	if wsc.Unit == "" || fetch.Unit == "" {
		t.Fatalf("missing units in correlation: %+v", fails)
	}
	// Paper: "permanent faults on the WSC are more likely to generate
	// SDCs, whereas faults affecting the fetch unit lead, in more than
	// 90% of the cases, to DUEs."
	if wsc.SDC <= fetch.SDC {
		t.Errorf("WSC SDC share %.2f not above fetch %.2f", wsc.SDC, fetch.SDC)
	}
	if fetch.DUE <= wsc.DUE {
		t.Errorf("fetch DUE share %.2f not above WSC %.2f", fetch.DUE, wsc.DUE)
	}
	if fetch.DUE < 0.4 {
		t.Errorf("fetch DUE share %.2f; the paper reports >0.9", fetch.DUE)
	}
	t.Logf("correlation:\n%s", report.Discussion(fails))
}
