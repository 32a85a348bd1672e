// Package gpufaultsim's top-level benchmark harness: ablation benchmarks
// for the design choices the reproduction makes. The paper's tables and
// figures come from one command, cmd/repro -exhibit (see DESIGN.md's
// per-experiment index).
//
// Each ablation attaches its headline measured numbers as custom benchmark
// metrics. None of them is a speed measurement: how fast the layers run is
// the repository benchmark's job (go run ./benchmark, see
// benchmark/README.md).
package gpufaultsim

import (
	"math/rand"
	"strconv"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/mitigate"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

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
