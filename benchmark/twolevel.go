package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// twoLevel is the twolevel_paper15 workload: campaign.RunTwoLevelCtx on
// the paper's 15 evaluation apps with the event engine and default worker
// counts. One operation is one campaign; work is software injections.
//
// What a campaign costs depends on its seed: how many of the 16 injections
// per app and model end in the watchdog (at 8x the golden run) moves the
// wall time of one seed's campaign by 5% either way, more than the host's
// noise. A run therefore takes its repeats from inputVariants campaign
// seeds in turn, so that its medians are over that many times the
// injections.
type twoLevel struct{}

type twoLevelInst struct {
	cfg  campaign.TwoLevelConfig // of variant 0
	turn variantTurn

	// From the latest untraced repeat of variant 0, for the ledger.
	last     *campaign.Results
	lastWall float64
}

func (twoLevel) setup(seed int64, sc scale, _ string) (instance, error) {
	cfg := campaign.TwoLevelConfig{
		Seed:        seed,
		MaxPatterns: pick(sc, 512, 48),
		Injections:  pick(sc, 16, 1),
		EvalApps:    cnn.Evaluation15(),
	}.Defaults()
	// Warm-up: the same pipeline at the smoke size.
	warm := cfg
	warm.MaxPatterns, warm.Injections = 48, 1
	if _, err := campaign.RunTwoLevelCtx(context.Background(), warm); err != nil {
		return nil, err
	}
	return &twoLevelInst{cfg: cfg}, nil
}

func (i *twoLevelInst) close() {}

func (i *twoLevelInst) repeat(tr *tracer) (repeatResult, error) {
	v := i.turn.take(tr)
	cfg := i.cfg
	cfg.Seed = variantSeed(cfg.Seed, v)
	t0 := time.Now()
	var res *campaign.Results
	var err error
	if tr == nil {
		res, err = campaign.RunTwoLevelCtx(context.Background(), cfg)
	} else {
		res, err = i.stepwise(tr, cfg)
	}
	wall := time.Since(t0).Seconds()
	if err != nil {
		return repeatResult{}, err
	}
	if tr == nil && v == 0 {
		i.last, i.lastWall = res, wall
	}

	out := repeatResult{wall: wall, ops: []float64{wall}, variant: v, counters: map[string]int64{}}
	var reports []any
	for _, u := range res.Units {
		reports = append(reports, artifact.NewGateReport(cfg.Seed, u.Summary, u.Collector))
		out.counters["gate_patterns"] += int64(u.Summary.Patterns)
		out.counters["gate_faults"] += int64(len(u.Summary.Faults))
		out.counters["gate_sim_sites"] += int64(u.Summary.SimulatedSites)
	}
	reports = append(reports, artifact.NewSoftwareReport(cfg.Seed, cfg.Injections, res.Apps))
	for _, a := range res.Apps {
		for _, t := range a.ByModel {
			out.counters["sw_masked"] += int64(t.Masked)
			out.counters["sw_sdc"] += int64(t.SDC)
			out.counters["sw_due"] += int64(t.DUE)
		}
	}
	out.work = float64(out.counters["sw_masked"] + out.counters["sw_sdc"] + out.counters["sw_due"])
	out.counters["profile_dyn_instrs"] = int64(res.Profile.DynInstrs)
	if out.digest, err = artifact.Digest(reports); err != nil {
		return repeatResult{}, err
	}
	return out, nil
}

// stepwise is RunTwoLevelCtx taken apart into its exported steps, each
// under a span. Its results must digest like the single call's: the run
// fails otherwise, because the trace would describe another program.
func (i *twoLevelInst) stepwise(tr *tracer, cfg campaign.TwoLevelConfig) (*campaign.Results, error) {
	ctx := context.Background()
	root := tr.begin(0, "bench", "twolevel")
	defer tr.end(root)
	res := &campaign.Results{}

	sp := tr.begin(root, "profiler", "campaign.ProfileStep")
	prof, err := campaign.ProfileStep(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	res.Profile = prof
	sp = tr.begin(root, "profiler", "Profile.TopPatterns")
	patterns := prof.TopPatterns(cfg.MaxPatterns)
	tr.end(sp)

	gate := tr.begin(root, "campaign", "gate")
	res.Units, err = campaign.ParallelMapCtx(ctx, units.All(), cfg.Workers, func(u *units.Unit) *campaign.UnitOutcome {
		sp := tr.begin(gate, "gatesim", "campaign.GateStep:"+u.Name)
		defer tr.end(sp)
		return campaign.GateStep(u, patterns, cfg.Collapse, gatesim.EngineEvent, cfg.BatchWorkers)
	})
	tr.end(gate)
	if err != nil {
		return nil, err
	}

	type appOut struct {
		res *perfi.AppResult
		err error
	}
	sw := tr.begin(root, "campaign", "software")
	outs, err := campaign.ParallelMapCtx(ctx, cfg.EvalApps, cfg.Workers, func(w workloads.Workload) appOut {
		sp := tr.begin(sw, "perfi", "campaign.SoftwareStep:"+w.Name())
		defer tr.end(sp)
		r, err := campaign.SoftwareStep(w, cfg)
		return appOut{r, err}
	})
	tr.end(sw)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Apps = append(res.Apps, o.res)
	}
	return res, nil
}

// ledger replays perfi.RunApp's loop from outside, one app after another
// on one goroutine, with its exported pieces: the only way to time single
// injections before perfi is instrumented itself. The replay must tally
// exactly what the campaign tallied.
func (i *twoLevelInst) ledger(tr *tracer) (map[string]float64, error) {
	if i.last == nil {
		return nil, fmt.Errorf("twolevel ledger: no untraced repeat to decompose")
	}
	tm, wall := i.last.Timing, i.lastWall
	m := map[string]float64{
		"campaign.profile_step_s":      tm.ProfilingSec,
		"campaign.gate_step_s":         tm.GateSec,
		"campaign.software_step_s":     tm.SoftwareSec,
		"campaign.software_step_share": tm.SoftwareSec / wall,
		"campaign.gate_step_share":     tm.GateSec / wall,
		"campaign.sum_vs_wall_error":   math.Abs(tm.ProfilingSec+tm.GateSec+tm.AnalysisSec+tm.SoftwareSec-wall) / wall,
	}

	var (
		injTimes                             []float64
		appSec, goldenSec, classifySec       float64
		injSec, watchdogSec                  float64
		faultyIssues, idealIssues, activated uint64
		outcomes                             perfi.Tally
	)
	models := errmodel.Injectable()
	for _, mod := range models {
		m["perfi.model_s."+mod.String()] = 0
	}
	root := tr.begin(0, "bench", "perfi_replay")
	for ai, w := range i.cfg.EvalApps {
		sp, appStart := tr.begin(root, "perfi", "replay:"+w.Name()), time.Now()
		// Everything below mirrors perfi.RunApp line for line, down to
		// the order in which the two random streams are drawn.
		rng := rand.New(rand.NewSource(i.cfg.Seed))
		job := w.Build(rand.New(rand.NewSource(i.cfg.Seed)))
		devCfg := gpu.DefaultConfig()
		devCfg.GlobalMemWords = job.Footprint() + 64
		dev := gpu.NewDevice(devCfg)
		t0 := time.Now()
		golden, err := job.Run(dev)
		goldenSec += time.Since(t0).Seconds()
		if err != nil || golden.Hung() {
			return nil, fmt.Errorf("replay: golden run of %s failed: %v %v", w.Name(), err, golden)
		}
		faultyCfg := devCfg
		faultyCfg.MaxIssues = golden.Issues*8 + 10000
		fdev := gpu.NewDevice(faultyCfg)
		maxWarps := 1
		for _, k := range job.Kernels {
			maxWarps = max(maxWarps, (k.Cfg.Block.Count()+31)/32)
		}
		maxWarps = min(maxWarps, devCfg.MaxWarpsPerSM)

		for _, mod := range models {
			var tally perfi.Tally
			for n := 0; n < i.cfg.Injections; n++ {
				d := errmodel.Random(mod, rng, maxWarps, devCfg.PPBsPerSM)
				inj := perfi.New(d, rand.New(rand.NewSource(i.cfg.Seed^int64(n)<<17)))
				fdev.ClearHooks()
				fdev.AddHook(inj)
				t0 := time.Now()
				rr, err := job.Run(fdev)
				dt := time.Since(t0).Seconds()
				if err != nil {
					return nil, fmt.Errorf("replay: %s/%v injection %d: %w", w.Name(), mod, n, err)
				}
				t1 := time.Now()
				o := workloads.Classify(golden.Output, rr)
				classifySec += time.Since(t1).Seconds()

				tally.Add(o)
				outcomes.Add(o)
				injTimes = append(injTimes, dt)
				injSec += dt
				m["perfi.model_s."+mod.String()] += dt
				faultyIssues += rr.Issues
				idealIssues += golden.Issues
				if rr.Trap == gpu.TrapWatchdog {
					watchdogSec += dt
				}
				if inj.Activations > 0 {
					activated++
				}
			}
			if got := i.last.Apps[ai].ByModel[mod]; got != tally {
				return nil, fmt.Errorf("replay of %s/%v tallies %+v, perfi.RunApp tallied %+v", w.Name(), mod, tally, got)
			}
		}
		d := time.Since(appStart).Seconds()
		tr.end(sp)
		m["perfi.runapp_s."+w.Name()] = d
		appSec += d
	}
	tr.end(root)

	workers := min(runtime.GOMAXPROCS(0), len(i.cfg.EvalApps))
	n := float64(len(injTimes))
	m["campaign.sw_parallel_efficiency"] = appSec / (float64(workers) * tm.SoftwareSec)
	m["perfi.injection_s_p50"] = percentile(injTimes, 50)
	m["perfi.injection_s_p99"] = percentile(injTimes, min(99, tailPercentile(len(injTimes))))
	m["workloads.classify_s"] = classifySec
	m["perfi.ns_per_issue_hooked"] = injSec / float64(faultyIssues) * 1e9
	m["perfi.golden_share"] = goldenSec / appSec
	m["perfi.watchdog_share"] = watchdogSec / injSec
	m["perfi.activated_share"] = float64(activated) / n
	m["perfi.issue_amplification"] = float64(faultyIssues) / float64(idealIssues)
	m["perfi.faulty_issues"] = float64(faultyIssues)
	m["perfi.outcome.masked"] = float64(outcomes.Masked)
	m["perfi.outcome.sdc"] = float64(outcomes.SDC)
	m["perfi.outcome.due"] = float64(outcomes.DUE)
	return m, nil
}
