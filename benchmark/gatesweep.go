package main

import (
	"fmt"
	"math/rand"
	"time"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/units"
)

// gateSweep is the gate_sweep workload: for each derived seed, profile the
// 14 representative codes at the 4096-pattern cap, rank the patterns, and
// run the exhaustive stuck-at campaign with inline classification on each
// unit (event engine, no collapsing, default batch workers). One operation
// is one derived seed's sweep (the three unit campaigns differ 40-fold in
// size, so a percentile over them would only say which unit it landed on);
// work is requested fault x pattern pairs, so a change that simulates fewer
// of them for the same answer counts as faster.
type gateSweep struct{}

type gateSweepInst struct {
	cfgs  []campaign.TwoLevelConfig // one per derived seed
	units []*units.Unit

	// From the latest repeat, for the ledger: derived seed 0's profile,
	// patterns and as-run campaign times.
	prof       *profiler.Profile
	patterns   []units.Pattern
	collectSec float64
	topSec     float64
	unitSec    map[string]float64
	asRun      map[string]string // unit -> gate report digest
	events     int64
}

func (gateSweep) setup(seed int64, sc scale, _ string) (instance, error) {
	i := &gateSweepInst{units: units.All()}
	for k := 0; k < pick(sc, 2, 1); k++ {
		i.cfgs = append(i.cfgs, campaign.TwoLevelConfig{
			Seed: seed*31 + int64(k), MaxPatterns: pick(sc, 4096, 96),
		}.Defaults())
	}
	// Warm-up: profile and touch every unit's campaign path briefly.
	prof, err := campaign.ProfileStep(i.cfgs[0])
	if err != nil {
		return nil, err
	}
	for _, u := range i.units {
		campaign.GateStep(u, prof.TopPatterns(48), false, gatesim.EngineEvent, 0)
	}
	return i, nil
}

func (i *gateSweepInst) close() {}

func (i *gateSweepInst) repeat(tr *tracer) (repeatResult, error) {
	out := repeatResult{counters: map[string]int64{}}
	var reports []any
	i.unitSec, i.asRun, i.events = map[string]float64{}, map[string]string{}, 0
	root := tr.begin(0, "bench", "gate_sweep")
	t0 := time.Now()
	for k, cfg := range i.cfgs {
		sweepStart, failedBefore := time.Now(), out.failed
		sp, t1 := tr.begin(root, "profiler", "campaign.ProfileStep"), time.Now()
		prof, err := campaign.ProfileStep(cfg)
		collect := time.Since(t1).Seconds()
		tr.end(sp)
		if err != nil {
			return repeatResult{}, err
		}
		sp, t1 = tr.begin(root, "profiler", "Profile.TopPatterns"), time.Now()
		patterns := prof.TopPatterns(cfg.MaxPatterns)
		top := time.Since(t1).Seconds()
		tr.end(sp)
		if k == 0 {
			i.prof, i.patterns, i.collectSec, i.topSec = prof, patterns, collect, top
		}
		out.counters["patterns"] += int64(len(patterns))
		for _, u := range i.units {
			sp, t1 = tr.begin(root, "gatesim", "campaign.GateStep:"+u.Name), time.Now()
			o := campaign.GateStep(u, patterns, false, gatesim.EngineEvent, 0)
			d := time.Since(t1).Seconds()
			tr.end(sp)
			rep := artifact.NewGateReport(cfg.Seed, o.Summary, o.Collector)
			reports = append(reports, rep)
			out.work += float64(len(o.Summary.Faults)) * float64(len(patterns))
			out.counters["sim_sites"] += int64(o.Summary.SimulatedSites)
			out.counters["sw_error_faults"] += int64(o.Summary.NumSWError)
			if o.Collector.Unmapped != 0 && out.failed == failedBefore {
				out.failed++ // a corrupted field without an error model
			}
			if k == 0 {
				i.unitSec[u.Name] = d
				if i.asRun[u.Name], err = artifact.Digest(rep); err != nil {
					return repeatResult{}, err
				}
				for _, n := range o.Collector.Events {
					i.events += int64(n)
				}
			}
		}
		out.ops = append(out.ops, time.Since(sweepStart).Seconds())
	}
	out.wall = time.Since(t0).Seconds()
	tr.end(root)
	out.counters["fault_patterns"] = int64(out.work)
	var err error
	out.digest, err = artifact.Digest(reports)
	return out, err
}

// ledger reruns derived seed 0's campaigns the other ways the code can
// run them (one batch worker, collapsed, dense engine, no sink), each of
// which must report what the as-run campaign reported.
func (i *gateSweepInst) ledger(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{
		"profiler.collect_s":      i.collectSec,
		"profiler.top_patterns_s": i.topSec,
		"profiler.dyn_instrs":     float64(i.prof.DynInstrs),
		"profiler.patterns":       float64(len(i.patterns)),
		"errclass.events":         float64(i.events),
	}
	cfg := i.cfgs[0]
	root := tr.begin(0, "bench", "gate_ledger")
	defer tr.end(root)
	timed := func(layer, name string, f func()) float64 { return tr.timed(root, layer, name, f) }

	m["units.build_s"] = timed("units", "units.All", func() { units.All() })

	// The capture hook's cost per dynamic instruction: profiling time less
	// the same builds and runs with no hook registered.
	plain := timed("gpu", "profiling codes, no hook", func() {
		dev := gpu.NewDevice(gpu.DefaultConfig())
		for _, w := range cfg.ProfilingWorkloads {
			// A timing baseline only: ProfileStep has run these to the end.
			_, _ = w.Build(rand.New(rand.NewSource(cfg.Seed))).Run(dev)
		}
	})
	m["profiler.ns_per_issue"] = (i.collectSec - plain) / float64(i.prof.DynInstrs) * 1e9

	var asRunSec, pairs float64
	for _, u := range i.units {
		pre := "gatesim." + u.Name
		variant := func(name string, collapse bool, eng gatesim.Engine, workers int) (float64, *campaign.UnitOutcome, error) {
			var o *campaign.UnitOutcome
			d := timed("gatesim", "campaign.GateStep:"+u.Name+" "+name, func() {
				o = campaign.GateStep(u, i.patterns, collapse, eng, workers)
			})
			got, err := artifact.Digest(artifact.NewGateReport(cfg.Seed, o.Summary, o.Collector))
			if err == nil && got != i.asRun[u.Name] {
				err = fmt.Errorf("%s campaign (%s) reports %s, as-run campaign %s", u.Name, name, got, i.asRun[u.Name])
			}
			return d, o, err
		}
		m[pre+".campaign_s"] = i.unitSec[u.Name]
		asRunSec += i.unitSec[u.Name]
		pairs += float64(u.NL.NumFaults()) * float64(len(i.patterns))
		m[pre+".reduced_patterns"] = float64(len(u.ReducePatterns(i.patterns)))

		w1, o1, err := variant("1 worker", false, gatesim.EngineEvent, 1)
		if err != nil {
			return nil, err
		}
		m[pre+".campaign_w1_s"] = w1
		m[pre+".shard_speedup"] = w1 / i.unitSec[u.Name] // base: one batch worker

		m["analyze.collapse_s"] += timed("analyze", "analyze.Collapse:"+u.Name, func() { analyze.Collapse(u.NL) })
		col, o, err := variant("collapsed", true, gatesim.EngineEvent, 0)
		if err != nil {
			return nil, err
		}
		m[pre+".collapsed_s"] = col
		m[pre+".sim_sites"] = float64(o.Summary.SimulatedSites)

		if u.Name != "wsc" {
			// The dense oracle engine; on wsc it would take minutes.
			if m[pre+".full_s"], _, err = variant("dense engine", false, gatesim.EngineFull, 0); err != nil {
				return nil, err
			}
			continue
		}
		noSink := timed("gatesim", "gatesim.CampaignCfg:wsc nil sink", func() {
			gatesim.CampaignCfg(u, i.patterns, nil, gatesim.Config{Engine: gatesim.EngineEvent})
		})
		m["errclass.sink_s"] = i.unitSec[u.Name] - noSink
		m["errclass.report_s"] = timed("errclass", "errclass.Report:wsc", func() {
			errclass.Report(o1.Summary, o1.Collector)
		})
	}
	m["gatesim.ns_per_fault_pattern"] = asRunSec / pairs * 1e9
	return m, nil
}
