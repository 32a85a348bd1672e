package main

import (
	"fmt"
	"regexp"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
)

// metricDef names one metric of the benchmark contract. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics carry none, and BENCHMARK.json then omits the key, as
// the contract's key sets demand.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures; BENCHMARK.json repeats it. The
// driver makes 4 + 22 x 4 runs inside 3420 s, two builds included: 25 s of
// measuring, a few seconds of set-ups and the last repeat's overshoot keep
// that under 3000 s.
const runSeconds = 25

// The four workloads of ISSUE 11.
var workloadDefs = []workloadDef{
	{"twolevel_paper15", "the whole two-level methodology as a CLI user runs it on the 15 evaluation apps: perfi+gpu (hooked interpreter) do most of the work, gatesim a small share"},
	{"gate_sweep", "profiling plus exhaustive gate campaigns on wsc, fetch and decoder at the 4096-pattern cap: gatesim/netlist/errclass do the work, perfi none; bypasses every software-level optimisation"},
	{"golden_interp", "the 15 evaluation jobs run hook-free from one goroutine: the same gpu layer as twolevel_paper15 without instrumentation, so a tax on the plain path shows here"},
	{"service_jobs", "closed loop, 2 clients, small job specs: cold on a local scheduler, again as cache hits, and through coordinator + worker over loopback; jobs/store/cluster overhead above a small compute floor"},
}

// End-to-end metrics, printed by every workload. An operation (op) is one
// two-level campaign, one derived seed's gate sweep, one pass over the 15
// golden jobs or one job; the unit of work_per_s is injections, requested
// fault x pattern pairs, warp issues or jobs (README.md has the table).
// The time bounds are the contract's widest: ten runs of one commit on the
// shared 2-vCPU host this was written on spread by up to 8% between their
// quartiles, and a bound is to be three times the spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"op_p80_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
}

// perLayer lists the traced-run metrics in ledger order. Each belongs to
// the workload whose ledger measures it at full scale; the other
// workloads' traced runs carry a smoke-scale sample of it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// twolevel_paper15
	add("s", "lower", "campaign.profile_step_s", "campaign.gate_step_s", "campaign.software_step_s")
	add("share", "higher", "campaign.software_step_share")
	add("share", "lower", "campaign.gate_step_share", "campaign.sum_vs_wall_error")
	add("share", "higher", "campaign.sw_parallel_efficiency")
	for _, w := range cnn.Evaluation15() {
		add("s", "lower", "perfi.runapp_s."+w.Name())
	}
	for _, m := range errmodel.Injectable() {
		add("s", "lower", "perfi.model_s."+m.String())
	}
	add("s", "lower", "perfi.injection_s_p50", "perfi.injection_s_p99", "workloads.classify_s")
	add("ns", "lower", "perfi.ns_per_issue_hooked")
	add("share", "lower", "perfi.golden_share", "perfi.watchdog_share", "perfi.activated_share")
	add("ratio", "lower", "perfi.issue_amplification")
	add("count", "lower", "perfi.faulty_issues", "perfi.outcome.masked", "perfi.outcome.sdc", "perfi.outcome.due")
	// gate_sweep
	add("s", "lower", "units.build_s", "profiler.collect_s", "profiler.top_patterns_s", "analyze.collapse_s")
	add("ns", "lower", "profiler.ns_per_issue", "gatesim.ns_per_fault_pattern")
	add("count", "lower", "profiler.dyn_instrs", "profiler.patterns")
	for _, u := range unitNames {
		add("s", "lower", "gatesim."+u+".campaign_s", "gatesim."+u+".campaign_w1_s", "gatesim."+u+".collapsed_s")
		add("ratio", "higher", "gatesim."+u+".shard_speedup")
		add("count", "lower", "gatesim."+u+".sim_sites", "gatesim."+u+".reduced_patterns")
	}
	add("s", "lower", "gatesim.fetch.full_s", "gatesim.decoder.full_s", "errclass.sink_s", "errclass.report_s")
	add("count", "lower", "errclass.events")
	// golden_interp
	add("s", "lower", "workloads.build_s", "gpu.new_device_s", "gpu.reset_s", "gpu.launch_nohook_s")
	add("count", "lower", "gpu.issues")
	add("ns", "lower", "gpu.ns_per_issue_nohook", "gpu.ns_per_issue_nullhook")
	add("ratio", "lower", "gpu.hook_overhead_ratio")
	// service_jobs: the cold pass
	add("s", "lower", "jobs.cold_p50_s", "jobs.submit_s_p50", "jobs.compute_s_per_job", "jobs.overhead_s_per_job",
		"jobs.phase_s.profile", "jobs.phase_s.gate", "jobs.phase_s.software",
		"store.put_s_p50", "store.evict_put_s_p50", "artifact.digest_s")
	add("count", "lower", "jobs.chunks_per_job", "jobs.cache_hits_cold", "store.bytes", "store.entries")
	add("MB/s", "higher", "store.put_mb_per_s")
	add("share", "higher", "store.hit_rate_cold")
	// the warm pass
	add("s", "lower", "jobs.warm_p50_s", "jobs.warm_s_per_chunk", "store.get_s_p50")
	add("count", "higher", "jobs.cache_hits_warm")
	add("MB/s", "higher", "store.get_mb_per_s")
	add("share", "higher", "store.hit_rate_warm")
	// the cluster pass
	add("s", "lower", "jobs.cluster_p50_s", "cluster.lease_rtt_s_p50", "cluster.chunk_overhead_s")
	// the benchmark itself, on the run's own workload
	add("share", "lower", "bench.trace_overhead_share")
	for _, layer := range tracedLayers {
		add("share", "lower", "bench.layer_share."+layer)
	}
	add("MB", "lower", "bench.peak_rss_mb")
	add("count", "lower", "bench.trace_spans")
	return out
}

// tracedLayers are the layers a repeat's spans are attributed to: the
// package called, "campaign" for its worker pools' fan-out spans, and
// "bench" for the repeat's root.
var tracedLayers = []string{"bench", "campaign", "profiler", "gatesim", "perfi", "gpu", "jobs"}

// unitNames are the units under test, in units.All() order.
var unitNames = []string{"wsc", "fetch", "decoder"}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func currentSpec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate holds a spec to the limits the driver enforces before a run.
func (s benchmarkSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("spec: %d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("spec: run_seconds %d, want 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("spec: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("spec: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("spec: workload %s: why must be 1..200 characters", w.Name)
		}
	}
	for i, m := range append(append([]metricDef{}, s.EndToEnd...), s.PerLayer...) {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("spec: metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("spec: metric %s: better is %q", m.Name, m.Better)
		}
		if e2e := i < len(s.EndToEnd); e2e && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("spec: metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			return nil
		}
	}
	return fmt.Errorf("spec: no setup_s metric (unit s, lower is better)")
}
