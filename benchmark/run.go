package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// scale sizes a workload: full is what the contract measures, smoke is a
// shape-preserving miniature for tests and for the samples a traced run
// takes of the layers its own workload does not own.
type scale string

const (
	scaleFull  scale = "full"
	scaleSmoke scale = "smoke"
)

// pick returns full or smoke by scale.
func pick[T any](sc scale, full, smoke T) T {
	if sc == scaleSmoke {
		return smoke
	}
	return full
}

// maxProcs caps GOMAXPROCS, so that a large host measures what a small one does.
const maxProcs = 4

// workload builds instances of one named workload.
type workload interface {
	// setup builds everything a repeat needs from the seed alone and runs
	// a reduced warm-up pass, so that one-time costs land in setup_s.
	setup(seed int64, sc scale, tmp string) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// repeat runs the workload once. With a tracer it records a span
	// around every call into a layer; outputs must not depend on it.
	repeat(tr *tracer) (repeatResult, error)
	// ledger measures this workload's per-layer metrics, using what the
	// repeats so far have learned. It fails only when an equivalence guard
	// does: when what it measured is not the program the repeats ran.
	ledger(tr *tracer) (map[string]float64, error)
	close()
}

// repeatResult is what one repeat did and produced.
type repeatResult struct {
	wall float64   // seconds of the timed section
	work float64   // simulated work done, in the workload's unit
	ops  []float64 // latency of each operation, seconds
	// attempted is the number of operations when not every one of them is
	// in ops (service_jobs times its cold pass only); 0 means len(ops).
	attempted int
	failed    int // operations that failed or produced wrong output
	// variant says which of the instance's input variants this repeat ran.
	// Repeats of one variant must agree exactly; variant 0 is the one the
	// oracle knows.
	variant  int
	digest   string // artifact.Digest of the outputs
	counters map[string]int64
}

// inputVariants is how many sets of inputs twolevel_paper15 and
// service_jobs derive from the workload seed and take their repeats from
// in turn. What their injections cost depends on the seed (how many end in
// the watchdog), by more than the host's noise; a run's medians over four
// seeds' injections repeat better than over one seed's four times.
const inputVariants = 4

// variantSeed is the seed of variant v: variant 0 is the workload seed
// itself, the others far enough from it that neighbouring workload seeds
// share no inputs.
func variantSeed(seed int64, v int) int64 { return seed + int64(v)*1_000_003 }

// variantTurn hands the variants out: each untraced repeat takes the next
// one, and a traced repeat runs the latest untraced one's again, so that
// the two can be held to each other.
type variantTurn struct{ next, cur int }

func (t *variantTurn) take(tr *tracer) int {
	if tr == nil {
		t.cur, t.next = t.next, (t.next+1)%inputVariants
	}
	return t.cur
}

var registry = map[string]workload{
	"twolevel_paper15": twoLevel{},
	"gate_sweep":       gateSweep{},
	"golden_interp":    goldenInterp{},
	"service_jobs":     service{},
}

// runConfig is one invocation of the contract command.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	tmpRoot  string // directory under which this run keeps its files
	traceOut string // copy of the Chrome trace, "" = none
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's result: the contract's four keys first, then what
// -out keeps beside them for -compare.
type record struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string           `json:"workload,omitempty"`
	Seed     int64            `json:"seed,omitempty"`
	Trace    bool             `json:"trace,omitempty"`
	Scale    scale            `json:"scale,omitempty"`
	Digest   string           `json:"digest,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Repeats  int              `json:"repeats,omitempty"`
	OpCount  int              `json:"op_samples,omitempty"`
	// PeakRSSMB is VmHWM at the end of the run's own workload. It is kept
	// out of the bounded metrics: on a 15 MB process one 4 MB heap arena,
	// mapped or not by how far the collector overshot, is a quarter of it.
	PeakRSSMB float64   `json:"peak_rss_mb,omitempty"`
	Host      *hostInfo `json:"host,omitempty"`
	Problems  []string  `json:"problems,omitempty"`

	firsts map[int]repeatResult // the first repeat of each variant
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func host() *hostInfo {
	h := &hostInfo{CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// contractLine is the last line of standard output.
func (r *record) contractLine() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.Correct, r.Attempted, r.Failed)
	for i, name := range sortedKeys(r.Metrics) {
		if i > 0 {
			b.WriteString(", ")
		}
		m := r.Metrics[name]
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	b.WriteString("}}")
	return b.String()
}

// run executes one workload run and returns its record. An error means
// the run could not be carried out; wrong outputs come back as a record
// with Correct false.
func run(cfg runConfig) (*record, error) {
	w, ok := registry[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmpRoot, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rec := &record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Scale: cfg.scale,
		Metrics: map[string]metricValue{}, Counters: map[string]int64{}, Host: host()}
	if cfg.trace {
		err = runTraced(cfg, tmp, rec)
	} else {
		err = runEndToEnd(cfg, w, tmp, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
	if !rec.Correct && rec.Failed == 0 {
		// Outputs that disagree with the oracle or with each other make
		// every operation of the run suspect.
		rec.Failed = rec.Attempted
	}
	return rec, nil
}

// A run sets its workload up at least minSetups times, and cheap set-ups
// more often, until they add up to setupBudget seconds; setup_s is the
// median and the last instance is the one measured.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1.0
)

func runEndToEnd(cfg runConfig, w workload, tmp string, rec *record) error {
	var inst instance
	var setups []float64
	for i := 0; i < minSetups || (i < maxSetups && sum(setups) < setupBudget); i++ {
		if inst != nil {
			// A discarded instance is the benchmark's garbage, not the
			// program's footprint: collect it before it can raise the peak.
			inst.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed, cfg.scale, filepath.Join(tmp, fmt.Sprint("setup", i))); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	var walls, rates, allocs, ops []float64
	var ms runtime.MemStats
	start := time.Now()
	for {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := inst.repeat(nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.TotalAlloc-before)/(1<<20))
		walls = append(walls, res.wall)
		rates = append(rates, res.work/res.wall)
		ops = append(ops, res.ops...)
		rec.absorb(cfg, res)
		// Stop where another repeat would overshoot the budget by more
		// than stopping now undershoots it.
		if time.Since(start).Seconds()+median(walls)/2 >= cfg.seconds {
			break
		}
	}
	rec.Repeats, rec.OpCount = len(walls), len(ops)

	p80 := percentile(ops, 50)
	if len(ops) >= 50 {
		p80 = percentile(ops, 80)
	}
	var err error
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	rec.set("setup_s", median(setups))
	rec.set("wall_s", median(walls))
	rec.set("work_per_s", median(rates))
	rec.set("op_p50_s", percentile(ops, 50))
	rec.set("op_p80_s", p80)
	rec.set("alloc_mb", median(allocs))
	return rec.finish(endToEnd)
}

func (r *record) set(metric string, v float64) { r.Metrics[metric] = metricValue{Value: v} }

// absorb folds one repeat of the run's own workload into the record and
// holds its outputs to the oracle and to the repeats before it.
func (r *record) absorb(cfg runConfig, res repeatResult) {
	r.Attempted += max(res.attempted, len(res.ops))
	r.Failed += res.failed
	first, seen := r.firsts[res.variant]
	if !seen {
		if r.firsts == nil {
			r.firsts = map[int]repeatResult{}
		}
		r.firsts[res.variant] = res
		if res.variant == 0 {
			r.Digest = res.digest
			for k, v := range res.counters {
				r.Counters[k] = v
			}
			r.Problems = append(r.Problems, checkExpected(cfg.scale, cfg.workload, cfg.seed, res.digest, res.counters)...)
		}
		return
	}
	if res.digest != first.digest {
		r.Problems = append(r.Problems, fmt.Sprintf("repeat digest %s differs from %s of the first repeat of variant %d", res.digest, first.digest, res.variant))
	}
	for k, v := range res.counters {
		if first.counters[k] != v {
			r.Problems = append(r.Problems, fmt.Sprintf("counter %s = %d differs from %d of the first repeat of variant %d", k, v, first.counters[k], res.variant))
		}
	}
}

// finish attaches units and insists on exactly the contract's metrics.
func (r *record) finish(defs []metricDef) error {
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, contract lists %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", r.Workload, d.Name, m.Value)
		}
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
	}
	return nil
}

// runTraced produces the per-layer metrics: the run's own workload at the
// run's scale, then every other workload once at smoke scale, so that each
// run reports every layer.
func runTraced(cfg runConfig, tmp string, rec *record) error {
	tr := newTracer()
	if err := traceWorkload(cfg, cfg.workload, tr, tmp, rec); err != nil {
		return err
	}
	for _, d := range workloadDefs {
		if d.Name != cfg.workload {
			if err := traceWorkload(cfg, d.Name, tr, tmp, rec); err != nil {
				return err
			}
		}
	}

	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(tmp, "trace.json")
	}
	n, err := saveTrace(path, tr.snapshot())
	if err != nil {
		return err
	}
	rec.set("bench.trace_spans", float64(n))
	if err := rec.finish(perLayer); err != nil {
		return err
	}
	// The layers' counts are simulated statistics: they repeat exactly for
	// a seed. (The benchmark's own span count depends on how many repeats
	// fitted the time budget.)
	layerCounts := map[string]int64{}
	for _, d := range perLayer {
		if d.Unit == "count" && !strings.HasPrefix(d.Name, "bench.") {
			layerCounts[d.Name] = int64(rec.Metrics[d.Name].Value)
			rec.Counters[d.Name] = layerCounts[d.Name]
		}
	}
	rec.Problems = append(rec.Problems, checkExpected(cfg.scale, cfg.workload, cfg.seed, "", layerCounts)...)
	return nil
}

// traceWorkload alternates untraced and traced repeats of one workload and
// then runs its ledger. The run's own workload gets the run's scale and
// seconds and the bench.* metrics; any other gets one pair at smoke scale.
func traceWorkload(cfg runConfig, name string, tr *tracer, tmp string, rec *record) error {
	own := name == cfg.workload
	sc, budget := scaleSmoke, 0.0
	if own {
		sc, budget = cfg.scale, cfg.seconds
	}
	inst, err := registry[name].setup(cfg.seed, sc, filepath.Join(tmp, name))
	if err != nil {
		return err
	}
	defer inst.close()

	var plain, traced []float64
	tracedRuns := map[int]bool{}
	for start := time.Now(); ; {
		a, err := inst.repeat(nil)
		if err != nil {
			return err
		}
		tracedRuns[tr.nextRun()] = true
		b, err := inst.repeat(tr)
		if err != nil {
			return err
		}
		plain, traced = append(plain, a.wall), append(traced, b.wall)
		if own {
			rec.absorb(cfg, a)
			rec.absorb(cfg, b)
		} else {
			if a.digest != b.digest {
				rec.Problems = append(rec.Problems, name+": traced and untraced outputs differ")
			}
			rec.Problems = append(rec.Problems, checkExpected(sc, name, cfg.seed, a.digest, a.counters)...)
		}
		if time.Since(start).Seconds()+median(plain)+median(traced) >= budget {
			break
		}
	}
	if own {
		rec.Repeats, rec.OpCount = len(plain)+len(traced), rec.Attempted
		rec.set("bench.trace_overhead_share", median(traced)/median(plain)-1)
		if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
			return err
		}
		rec.set("bench.peak_rss_mb", rec.PeakRSSMB)
		// Where the traced repeats' time went, by the layer called: self
		// seconds over wall seconds. "bench" is the repeat's own root
		// span, so its share is what no layer span covers.
		self := layerSelfSeconds(tr.snapshot(), tracedRuns)
		for _, layer := range tracedLayers {
			rec.set("bench.layer_share."+layer, self[layer]/sum(traced))
		}
	}

	tr.nextRun()
	got, err := inst.ledger(tr)
	if err != nil {
		// A ledger fails only on an equivalence guard: the per-layer
		// table would describe a different program.
		return fmt.Errorf("%s ledger: %w", name, err)
	}
	for k, v := range got {
		rec.set(k, v)
	}
	return nil
}

// saveTrace writes the Chrome trace and loads it back to prove it loads.
func saveTrace(path string, spans []span) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := writeChromeTrace(w, spans); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	in, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	return checkChromeTrace(bufio.NewReader(in))
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
