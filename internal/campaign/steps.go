package campaign

import (
	"fmt"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// The two-level methodology decomposes into independent steps along
// natural chunk boundaries: one profiling pass, one gate-level campaign
// per unit (given the exciting patterns), and one software-injection
// campaign per application. RunTwoLevelCtx composes them; the job scheduler
// (package jobs) runs them as separately cached, resumable work units.
// Every step is a pure function of its arguments, so identical inputs
// yield identical results regardless of which path invoked them.

// ProfileStep runs step 1 of the methodology: profile the workloads and
// extract the exciting patterns that drive the gate-level campaigns.
func ProfileStep(cfg TwoLevelConfig) (*profiler.Profile, error) {
	prof, err := profiler.Collect(cfg.ProfilingWorkloads,
		profiler.Config{Seed: cfg.Seed, MaxPatterns: cfg.MaxPatterns})
	if err != nil {
		return nil, fmt.Errorf("campaign: profiling: %w", err)
	}
	return prof, nil
}

// GateStep runs steps 2-3 for one unit: the stuck-at campaign over the
// exciting patterns with inline error classification. collapse prunes the
// fault list through the static analyzer first; eng selects the simulation
// engine and batchWorkers the intra-campaign fault-batch parallelism
// (0 = GOMAXPROCS, 1 = serial). Production passes (true, EngineEvent);
// the other combinations exist for the benchmark's variants and the
// oracle tests, and every one yields byte-identical classifications.
func GateStep(u *units.Unit, patterns []units.Pattern, collapse bool, eng gatesim.Engine, batchWorkers int) *UnitOutcome {
	cfg := gatesim.Config{Engine: eng, Workers: batchWorkers}
	col := errclass.NewCollector(u.Name)
	var sum *gatesim.Summary
	if collapse {
		sum = gatesim.CampaignCollapsedCfg(u, patterns, analyze.Collapse(u.NL), col, cfg)
	} else {
		sum = gatesim.CampaignCfg(u, patterns, col, cfg)
	}
	return &UnitOutcome{Unit: u, Summary: sum, Collector: col,
		Report: errclass.Report(sum, col)}
}

// SoftwareStep runs steps 4-5 for one application: the software-level
// error-injection campaign.
func SoftwareStep(app workloads.Workload, cfg TwoLevelConfig) (*perfi.AppResult, error) {
	return perfi.RunApp(app, perfi.Config{Injections: cfg.Injections, Seed: cfg.Seed})
}
