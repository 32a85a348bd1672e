// Package gpufaultsim's top-level benchmark harness: one benchmark per
// table and figure of the paper (see DESIGN.md's per-experiment index),
// plus ablation benchmarks for the design choices the reproduction makes.
//
// Benchmarks run scaled-down campaigns (the full paper scale is available
// through cmd/repro -scale paper) and attach the headline measured numbers
// as custom benchmark metrics, so `go test -bench . -benchmem` regenerates
// the shape of every exhibit. None of them is a speed measurement: how
// fast the layers run is the repository benchmark's job (go run
// ./benchmark, see benchmark/README.md).
package gpufaultsim

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/mitigate"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/rtlfi"
	"gpufaultsim/internal/syndrome"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// envInt lets CI scale campaign sizes (e.g. GPUFAULTSIM_INJECTIONS=1000).
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// --- Table 1 -----------------------------------------------------------------

func BenchmarkTable1Applications(b *testing.B) {
	apps := cnn.Evaluation15()
	for i := 0; i < b.N; i++ {
		if txt := report.Table1(apps); len(txt) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Table 3 -----------------------------------------------------------------

func BenchmarkTable3AreaUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof, err := profiler.Collect(workloads.Profiling(), profiler.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = report.Table3(prof)
		b.ReportMetric(100*prof.Utilization(isa.UnitFP32), "fp32-util-%")
		b.ReportMetric(float64(len(prof.Patterns)), "patterns")
	}
}

// gateArtifacts runs the gate-level campaigns once per benchmark iteration.
func gateArtifacts(b *testing.B, patterns int) ([]*gatesim.Summary, map[string]*errclass.Collector, map[string]int) {
	b.Helper()
	prof, err := profiler.Collect(
		[]workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}, workloads.BFS{}, workloads.FFT{}},
		profiler.Config{Seed: 1, MaxPatterns: patterns})
	if err != nil {
		b.Fatal(err)
	}
	pats := prof.TopPatterns(patterns)
	var sums []*gatesim.Summary
	cols := map[string]*errclass.Collector{}
	totals := map[string]int{}
	for _, u := range units.All() {
		col := errclass.NewCollector(u.Name)
		sums = append(sums, gatesim.CampaignCfg(u, pats, col, gatesim.Config{}))
		cols[u.Name] = col
		totals[u.Name] = u.NL.NumFaults()
	}
	return sums, cols, totals
}

// --- Table 4 -----------------------------------------------------------------

func BenchmarkTable4FaultClassification(b *testing.B) {
	pats := envInt("GPUFAULTSIM_PATTERNS", 64)
	for i := 0; i < b.N; i++ {
		sums, _, _ := gateArtifacts(b, pats)
		_ = report.Table4(sums)
		for _, s := range sums {
			if s.Unit == "decoder" {
				b.ReportMetric(100*s.Fraction(gatesim.SWError), "decoder-swerr-%")
			}
		}
	}
}

// --- Table 5 -----------------------------------------------------------------

func BenchmarkTable5AVFPerError(b *testing.B) {
	pats := envInt("GPUFAULTSIM_PATTERNS", 64)
	for i := 0; i < b.N; i++ {
		sums, cols, _ := gateArtifacts(b, pats)
		var reports []*errclass.UnitReport
		for _, s := range sums {
			reports = append(reports, errclass.Report(s, cols[s.Unit]))
		}
		txt := report.Table5(reports)
		if len(txt) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figure 2 ----------------------------------------------------------------

func BenchmarkFig2MicrobenchAVF(b *testing.B) {
	cfg := rtlfi.MicroConfig{Seed: 1, ValuesPerRange: 1, LanesSampled: 1}
	for i := 0; i < b.N; i++ {
		rows, _ := rtlfi.Figure2(cfg)
		_ = report.Fig2(rows)
		for _, r := range rows {
			if r.Op == isa.OpIADD && r.Module == rtlfi.ModINT {
				b.ReportMetric(100*r.AVF(), "iadd-int-avf-%")
			}
			if r.Op == isa.OpFADD && r.Module == rtlfi.ModFP32 {
				b.ReportMetric(100*r.AVF(), "fadd-fp32-avf-%")
			}
		}
	}
}

// --- Figures 4-5 --------------------------------------------------------------

func BenchmarkFig4Fig5Syndrome(b *testing.B) {
	cfg := rtlfi.MicroConfig{Seed: 1, ValuesPerRange: 2, LanesSampled: 2}
	for i := 0; i < b.N; i++ {
		_, pairs := rtlfi.MicroAVF(isa.OpFMUL, rtlfi.ModFP32, cfg)
		res := rtlfi.RelativeErrors(pairs, true)
		h := syndrome.Build(res)
		_ = report.SyndromeHistogram("FMUL/FP32", h)
		if fit, err := syndrome.Fit(res); err == nil {
			b.ReportMetric(fit.Alpha, "power-law-alpha")
		}
	}
}

// --- Figure 6 -----------------------------------------------------------------

func BenchmarkFig6TMxMAVF(b *testing.B) {
	stride := envInt("GPUFAULTSIM_TMXM_STRIDE", 24)
	for i := 0; i < b.N; i++ {
		st := rtlfi.RunTMxMStudy(rtlfi.TMxMConfig{Seed: 1, ValuesPerTile: 1, SiteStride: stride})
		_ = report.Fig6(st.Rows)
		for _, r := range st.Rows {
			if r.Module == rtlfi.ModSched && r.Tile == rtlfi.TileRandom {
				b.ReportMetric(100*(r.SDCSingle+r.SDCMulti+r.DUE), "sched-avf-%")
			}
		}
	}
}

// --- Table 2 / Figure 7 ---------------------------------------------------------

func BenchmarkTable2SpatialPatterns(b *testing.B) {
	stride := envInt("GPUFAULTSIM_TMXM_STRIDE", 24)
	for i := 0; i < b.N; i++ {
		st := rtlfi.RunTMxMStudy(rtlfi.TMxMConfig{Seed: 2, ValuesPerTile: 1, SiteStride: stride})
		_ = report.Table2(st)
		multi := 0
		for _, counts := range st.Patterns {
			for _, n := range counts {
				multi += n
			}
		}
		b.ReportMetric(float64(multi), "multi-events")
	}
}

// --- Figure 8 -----------------------------------------------------------------

func BenchmarkFig8SyndromeVariance(b *testing.B) {
	stride := envInt("GPUFAULTSIM_TMXM_STRIDE", 24)
	for i := 0; i < b.N; i++ {
		st := rtlfi.RunTMxMStudy(rtlfi.TMxMConfig{Seed: 3, ValuesPerTile: 1, SiteStride: stride})
		_ = report.Fig8(st)
	}
}

// --- Figure 9 -----------------------------------------------------------------

func BenchmarkFig9FAPR(b *testing.B) {
	pats := envInt("GPUFAULTSIM_PATTERNS", 64)
	for i := 0; i < b.N; i++ {
		_, cols, totals := gateArtifacts(b, pats)
		_ = report.Fig9(cols, totals)
		b.ReportMetric(100*cols["wsc"].FAPR(errmodel.IAT, totals["wsc"]), "wsc-iat-fapr-%")
	}
}

// --- Figure 10 ----------------------------------------------------------------

func BenchmarkFig10EPRPerApp(b *testing.B) {
	inj := envInt("GPUFAULTSIM_INJECTIONS", 10)
	apps := cnn.Evaluation15()
	for i := 0; i < b.N; i++ {
		results, err := perfi.RunSuite(apps, perfi.Config{Injections: inj, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = report.Fig10(results, errmodel.Injectable())
		var epr float64
		n := 0
		for _, r := range results {
			for _, m := range errmodel.Injectable() {
				epr += r.EPR(m)
				n++
			}
		}
		b.ReportMetric(100*epr/float64(n), "avg-epr-%")
	}
}

// --- Figure 11 ----------------------------------------------------------------

func BenchmarkFig11AverageEPR(b *testing.B) {
	inj := envInt("GPUFAULTSIM_INJECTIONS", 10)
	apps := []workloads.Workload{
		workloads.VectorAdd{}, workloads.GEMM{}, workloads.BFS{},
		workloads.MergeSort{}, cnn.LeNet{Digit: 3},
	}
	for i := 0; i < b.N; i++ {
		results, err := perfi.RunSuite(apps, perfi.Config{Injections: inj, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		avg := perfi.Average(results)
		_ = report.Fig11(avg, errmodel.Injectable())
		t := avg[errmodel.IAT]
		_, sdc, _ := t.Rate()
		b.ReportMetric(100*sdc, "iat-sdc-%")
	}
}

// --- Speed-up accounting ---------------------------------------------------------

func BenchmarkSpeedupAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunTwoLevelCtx(context.Background(), campaign.TwoLevelConfig{
			Seed: 1, MaxPatterns: 48, Injections: 4,
			ProfilingWorkloads: []workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}},
			EvalApps:           []workloads.Workload{workloads.VectorAdd{}},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Timing.Report()
		b.ReportMetric(res.Timing.GateSec, "gate-sec")
	}
}

// --- Ablations -------------------------------------------------------------------

// BenchmarkAblationParallelFaultSim compares the 64-way bit-parallel fault
// simulation against classic serial simulation (one faulty machine per
// evaluation pass) over the same 512-fault subset of the decoder's list.
func BenchmarkAblationParallelFaultSim(b *testing.B) {
	u := units.Decoder()
	p := units.Pattern{
		Word:      isa.Instruction{Op: isa.OpFFMA, Pred: isa.PT, Rd: 1, Rs1: 2, Rs2: 3, Rs3: 4}.Encode(),
		WarpValid: 0xF, WarpReady: 0xF, ActiveMask: ^uint32(0),
	}
	faults := netlist.FaultList(u.NL)[:512]

	run := func(groupSize int) {
		sim := netlist.NewSimulator(u.NL)
		for base := 0; base < len(faults); base += groupSize {
			end := base + groupSize
			if end > len(faults) {
				end = len(faults)
			}
			sim.Reset()
			sim.SetFaults(faults[base:end])
			for c := 0; c < u.Cycles; c++ {
				u.Drive(sim, p, c)
				sim.Step()
			}
		}
	}
	b.Run("parallel64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(64)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(1)
		}
	})
}

// BenchmarkAblationPatternDedup measures the stimulus compression from
// deduplicating dynamic instructions into unique exciting patterns, both
// globally and after each unit's Reduce projection (the form the
// campaigns actually exploit).
func BenchmarkAblationPatternDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof, err := profiler.Collect(
			[]workloads.Workload{workloads.MxM{}, workloads.GEMM{}},
			profiler.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(prof.DynInstrs)/float64(len(prof.Patterns)), "global-dedup-x")
		for _, u := range units.All() {
			reduced := u.ReducePatterns(prof.Patterns)
			b.ReportMetric(float64(prof.DynInstrs)/float64(len(reduced)), u.Name+"-dedup-x")
		}
	}
}

// --- Extensions ------------------------------------------------------------------

// BenchmarkMitigationCoverage evaluates the paper's Section-6.3
// countermeasure proposal: CFC + smart-scheduling replication.
func BenchmarkMitigationCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dets, err := mitigate.Evaluate(workloads.MxM{}, mitigate.Config{
			Injections: 12, Seed: 1,
			Models: []errmodel.Model{errmodel.IAT, errmodel.IAW, errmodel.WV},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range dets {
			if d.Model == errmodel.IAT {
				b.ReportMetric(100*d.CombinedCoverage(), "iat-coverage-%")
			}
		}
	}
}

// BenchmarkAblationPersistence compares permanent, intermittent and
// transient injections of the same error model (the paper: permanent
// faults are less likely to be masked than transient ones).
func BenchmarkAblationPersistence(b *testing.B) {
	for _, pers := range []errmodel.Persistence{
		errmodel.Permanent, errmodel.Intermittent, errmodel.Transient,
	} {
		b.Run(pers.String(), func(b *testing.B) {
			sess, err := perfi.NewSession(workloads.MxM{}, 1, gpu.Config{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			masked := 0
			n := 0
			for i := 0; i < b.N; i++ {
				d := errmodel.Random(errmodel.IOC, rng, 8, 1)
				d.Persistence = pers
				d.TransientAt = uint64(i % 97)
				d.DutyCycle = 8
				_, outcome, err := sess.Run(d)
				if err != nil {
					b.Fatal(err)
				}
				if outcome == workloads.OutcomeMasked {
					masked++
				}
				n++
			}
			b.ReportMetric(100*float64(masked)/float64(n), "masked-%")
		})
	}
}

// BenchmarkAblationDelayFaults runs the decoder campaign under the delay
// fault model (the paper's suggested extension) next to stuck-at.
func BenchmarkAblationDelayFaults(b *testing.B) {
	pats := envInt("GPUFAULTSIM_PATTERNS", 48)
	prof, err := profiler.Collect(
		[]workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}},
		profiler.Config{Seed: 1, MaxPatterns: pats})
	if err != nil {
		b.Fatal(err)
	}
	patterns := prof.TopPatterns(pats)
	u := units.Decoder()
	b.Run("stuck-at", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := gatesim.CampaignCfg(u, patterns, nil, gatesim.Config{})
			b.ReportMetric(100*sum.Fraction(gatesim.SWError), "sw-error-%")
		}
	})
	b.Run("delay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := gatesim.CampaignFaultsCfg(u, patterns, netlist.DelayFaultList(u.NL), nil, gatesim.Config{})
			b.ReportMetric(100*sum.Fraction(gatesim.SWError), "sw-error-%")
		}
	})
}

// BenchmarkAblationPPBs sweeps the SM's sub-partition count and reports
// the IAT EPR — architecture sensitivity of the error-descriptor mapping.
func BenchmarkAblationPPBs(b *testing.B) {
	for _, ppbs := range []int{1, 2, 4} {
		b.Run("ppbs="+strconv.Itoa(ppbs), func(b *testing.B) {
			cfg := gpu.DefaultConfig()
			cfg.PPBsPerSM = ppbs
			for i := 0; i < b.N; i++ {
				res, err := perfi.RunApp(workloads.MxM{}, perfi.Config{
					Injections: 16, Seed: 1, Device: cfg,
					Models: []errmodel.Model{errmodel.IAT},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.EPR(errmodel.IAT), "iat-epr-%")
			}
		})
	}
}
