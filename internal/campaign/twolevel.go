package campaign

//vetsim:instrumented

//vetsim:deterministic

import (
	"context"

	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// Per-phase wall-clock distributions of two-level runs. The same
// telemetry.Timer measurement feeds the Speedup breakdown, so the
// registry and the paper's timing report can never disagree.
var (
	telPhaseProfile  = telemetry.Default().Histogram("campaign_phase_seconds", "two-level phase wall-clock", telemetry.SecondsBuckets(), telemetry.L("phase", "profile"))
	telPhaseGate     = telemetry.Default().Histogram("campaign_phase_seconds", "two-level phase wall-clock", telemetry.SecondsBuckets(), telemetry.L("phase", "gate"))
	telPhaseSoftware = telemetry.Default().Histogram("campaign_phase_seconds", "two-level phase wall-clock", telemetry.SecondsBuckets(), telemetry.L("phase", "software"))
)

// TwoLevelConfig parameterizes the full methodology run.
type TwoLevelConfig struct {
	Seed int64
	// ProfilingWorkloads drive the exciting-pattern extraction (default:
	// the paper's 14 representative codes).
	ProfilingWorkloads []workloads.Workload
	// MaxPatterns caps the gate-level stimulus count (0 = 512; exhaustive
	// dedup typically yields a few thousand).
	MaxPatterns int
	// EvalApps are the software-level injection targets. nil means the
	// default, the 13 non-CNN evaluation apps (callers add LeNet/YOLOv3
	// via cnn); an empty non-nil slice skips the software step.
	EvalApps []workloads.Workload
	// Injections per app per model for the software level.
	Injections int
	// Workers bounds campaign parallelism across units and evaluation
	// apps (0 = GOMAXPROCS).
	Workers int
	// BatchWorkers is the intra-campaign parallelism of each unit's
	// gate-level campaign: a pattern's 64-lane fault batches shard across
	// this many workers, each owning its own simulator and event engine
	// (0 = GOMAXPROCS, 1 = single-threaded). Worker counts
	// never change results — summaries stay byte-identical at any width.
	BatchWorkers int
	// Collapse runs the static fault-collapsing analysis (package analyze)
	// before each gate-level campaign and simulates only one representative
	// fault per equivalence class. Summaries and classifications still
	// cover the full fault universe — gatesim expands the collapsed
	// results back — so the outputs are identical, just cheaper. Every
	// production caller sets it; it stays a field because the benchmark
	// pins Summary.SimulatedSites for the uncollapsed run.
	Collapse bool
}

// UnitOutcome couples one unit's gate-level campaign artifacts.
type UnitOutcome struct {
	Unit      *units.Unit
	Summary   *gatesim.Summary
	Collector *errclass.Collector
	Report    *errclass.UnitReport
}

// Results is everything the two-level methodology produces.
type Results struct {
	Profile *profiler.Profile
	Units   []*UnitOutcome // wsc, fetch, decoder
	Apps    []*perfi.AppResult
	Timing  report.Speedup
}

// Summaries extracts the gate-level summaries in unit order.
func (r *Results) Summaries() []*gatesim.Summary {
	out := make([]*gatesim.Summary, len(r.Units))
	for i, u := range r.Units {
		out[i] = u.Summary
	}
	return out
}

// Collectors maps unit name to its classification collector.
func (r *Results) Collectors() map[string]*errclass.Collector {
	m := make(map[string]*errclass.Collector, len(r.Units))
	for _, u := range r.Units {
		m[u.Unit.Name] = u.Collector
	}
	return m
}

// FaultTotals maps unit name to fault-list size.
func (r *Results) FaultTotals() map[string]int {
	m := make(map[string]int, len(r.Units))
	for _, u := range r.Units {
		m[u.Unit.Name] = u.Unit.NL.NumFaults()
	}
	return m
}

// UnitReports extracts the Table-5 views in unit order.
func (r *Results) UnitReports() []*errclass.UnitReport {
	out := make([]*errclass.UnitReport, len(r.Units))
	for i, u := range r.Units {
		out[i] = u.Report
	}
	return out
}

// Defaults fills the zero-valued fields with the paper's scaled-down
// defaults, returning the completed config.
func (cfg TwoLevelConfig) Defaults() TwoLevelConfig {
	if cfg.ProfilingWorkloads == nil {
		cfg.ProfilingWorkloads = workloads.Profiling()
	}
	if cfg.EvalApps == nil {
		cfg.EvalApps = workloads.Evaluation()
	}
	if cfg.MaxPatterns == 0 {
		cfg.MaxPatterns = 512
	}
	if cfg.Injections == 0 {
		cfg.Injections = 50
	}
	return cfg
}

// RunTwoLevelCtx executes the five-step methodology: (1) unit profiling,
// (2) gate-level stuck-at campaigns on WSC/fetch/decoder, (3) error
// identification and classification, (4-5) software-level error
// propagation on the evaluation applications. All steps are timed for the
// speed-up accounting. When ctx is canceled the campaign aborts at the
// next step or chunk boundary and returns ctx.Err().
func RunTwoLevelCtx(ctx context.Context, cfg TwoLevelConfig) (*Results, error) {
	cfg = cfg.Defaults()
	res := &Results{}
	root := telemetry.StartSpan("twolevel")
	defer root.End()

	// Step 1: hardware unit profiling.
	profSpan := root.Child("profile")
	tm := telemetry.StartTimer(telPhaseProfile)
	prof, err := ProfileStep(cfg)
	if err != nil {
		return nil, err
	}
	res.Profile = prof
	res.Timing.ProfilingSec = tm.Stop()
	profSpan.End()

	// Steps 2-3: gate-level campaigns with inline classification, one
	// worker per unit.
	patterns := prof.TopPatterns(cfg.MaxPatterns)
	gateSpan := root.Child("gate")
	tm = telemetry.StartTimer(telPhaseGate)
	outcomes, err := ParallelMapCtx(ctx, units.All(), cfg.Workers, func(u *units.Unit) *UnitOutcome {
		sp := gateSpan.Child("gate:" + u.Name)
		defer sp.End()
		return GateStep(u, patterns, cfg.Collapse, gatesim.EngineEvent, cfg.BatchWorkers)
	})
	if err != nil {
		return nil, err
	}
	res.Units = outcomes
	res.Timing.GateSec = tm.Stop()
	gateSpan.End()
	res.Timing.GatePatterns = len(patterns)
	for _, u := range outcomes {
		res.Timing.GateFaults += u.Unit.NL.NumFaults()
	}
	res.Timing.AnalysisSec = 0 // classification runs inline with step 2

	// Steps 4-5: software-level error propagation.
	swSpan := root.Child("software")
	tm = telemetry.StartTimer(telPhaseSoftware)
	apps, err := RunSuiteParallelCtx(ctx, cfg.EvalApps, perfi.Config{
		Injections: cfg.Injections, Seed: cfg.Seed,
	}, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res.Apps = apps
	res.Timing.SoftwareSec = tm.Stop()
	swSpan.End()
	res.Timing.AppDynInstrs = prof.DynInstrs
	for _, a := range apps {
		for _, t := range a.ByModel {
			res.Timing.SWInjections += t.Total()
		}
	}
	return res, nil
}

// RunSuiteParallelCtx runs one software-injection campaign per application
// on the worker pool, with cancellation at app boundaries. Each worker
// owns its devices, so results are identical to the sequential
// perfi.RunSuite.
func RunSuiteParallelCtx(ctx context.Context, apps []workloads.Workload, cfg perfi.Config, workers int) ([]*perfi.AppResult, error) {
	type outcome struct {
		res *perfi.AppResult
		err error
	}
	outs, err := ParallelMapCtx(ctx, apps, workers, func(w workloads.Workload) outcome {
		r, err := perfi.RunApp(w, cfg)
		return outcome{r, err}
	})
	if err != nil {
		return nil, err
	}
	results := make([]*perfi.AppResult, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.res
	}
	return results, nil
}
