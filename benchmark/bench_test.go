package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{50: 3, 80: 4, 81: 5, 100: 5, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
}

// The highest percentile reported is the one that still has ten samples
// beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 50}, {49, 50}, {50, 80}, {99, 80}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		p := tailPercentile(c.n)
		if beyond := c.n - int(math.Ceil(p*float64(c.n)/100-1e-9)); p > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond it, want ten", c.n, p, beyond)
		}
	}
}

// quartiles must give what Python's statistics.quantiles(xs, n=4) gives,
// because that is how the driver measures spread.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// A span's self time is its duration minus the part of it that its
// children cover; overlapping children cover their union once, and a
// grandchild takes from its parent only.
func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Run: 1, Layer: "campaign", Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Run: 1, Layer: "gatesim", Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Run: 1, Layer: "gatesim", Name: "b", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Run: 1, Layer: "perfi", Name: "c", Start: ms(70), End: ms(90)},
		{ID: 5, Parent: 4, Run: 1, Layer: "gpu", Name: "d", Start: ms(75), End: ms(80)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(30), 4: ms(15), 5: ms(5)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byLayer := layerSelfSeconds(spans, map[int]bool{1: true})
	if got := byLayer["gatesim"]; math.Abs(got-0.050) > 1e-9 {
		t.Errorf("gatesim self seconds = %v, want 0.050", got)
	}
}

func TestTracerRoundTripsThroughChromeTrace(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin(0, "x", "y"); id != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	nilTracer.end(0)
	tr := newTracer()
	tr.nextRun()
	root := tr.begin(0, "campaign", "root")
	kid := tr.begin(root, "gpu", "kid")
	tr.end(kid)
	tr.end(root)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	if n, err := checkChromeTrace(bytes.NewReader(buf.Bytes())); err != nil || n != 2 {
		t.Fatalf("checkChromeTrace = %d, %v; want 2 spans", n, err)
	}
	// A span without a run is refused.
	bad := strings.Replace(buf.String(), `"run":1`, `"run":0`, 1)
	if _, err := checkChromeTrace(strings.NewReader(bad)); err == nil {
		t.Error("a span with no run id passed the check")
	}
}

func TestJudgeHoldsToTheBound(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(c float64) []float64 {
		return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005, c, c * 0.99, c * 1.01, c, c}
	}
	noisy := func(c float64) []float64 {
		return []float64{c * 0.8, c * 1.2, c * 0.7, c * 1.3, c, c * 0.9, c * 1.1, c * 0.75, c * 1.25, c}
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady(10), steady(10), verdictOK},
		{"5% slower is within 10%", lower, steady(10), steady(10.5), verdictOK},
		{"15% slower", lower, steady(10), steady(11.5), verdictWorse},
		{"15% faster", lower, steady(10), steady(8.5), verdictOK},
		{"15% less throughput", higher, steady(100), steady(85), verdictWorse},
		{"15% more throughput", higher, steady(100), steady(115), verdictOK},
		{"spread wider than the bound", lower, noisy(10), steady(10), verdictUnresolved},
		{"noisy but every run better", lower, noisy(10), steady(5), verdictOK},
		{"noisy but every run better, higher", higher, noisy(10), steady(20), verdictOK},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scaleWall float64, digest string) string {
		path := filepath.Join(dir, name)
		for _, w := range workloadDefs {
			for seed := int64(1); seed <= 10; seed++ {
				r := &record{Workload: w.Name, Seed: seed, Scale: scaleFull, Correct: true, Attempted: 1,
					Digest: fmt.Sprint(digest, seed), Metrics: map[string]metricValue{}, Counters: map[string]int64{"jobs": 7}}
				for _, d := range endToEnd {
					v := 10 + 0.01*float64(seed)
					if d.Name == "wall_s" {
						v *= scaleWall
					}
					r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
				}
				if err := appendRecord(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 1, "d")
	var out bytes.Buffer
	if ok, err := compareFiles(&out, a, write("same.jsonl", 1, "d")); err != nil || !ok {
		t.Errorf("identical sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, a, write("slow.jsonl", 1.3, "d")); err != nil || ok || !strings.Contains(out.String(), string(verdictWorse)) {
		t.Errorf("30%% slower wall_s: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, a, write("other.jsonl", 1, "e")); err != nil || ok || !strings.Contains(out.String(), "DIFFERENT") {
		t.Errorf("different digests for a seed: ok=%v err=%v", ok, err)
	}
}

func TestSpecValidation(t *testing.T) {
	if err := currentSpec().validate(); err != nil {
		t.Fatalf("the benchmark's own spec is invalid: %v", err)
	}
	mutate := func(f func(*benchmarkSpec)) error {
		s := currentSpec()
		s.Workloads = append([]workloadDef{}, s.Workloads...)
		s.EndToEnd = append([]metricDef{}, s.EndToEnd...)
		s.PerLayer = append([]metricDef{}, s.PerLayer...)
		f(&s)
		return s.validate()
	}
	many := func(n int) []metricDef {
		var out []metricDef
		for k := 0; k < n; k++ {
			out = append(out, metricDef{Name: fmt.Sprint("m", k), Unit: "s", Better: "lower", Bound: 0.1})
		}
		return out
	}
	for name, f := range map[string]func(*benchmarkSpec){
		"name with a space":       func(s *benchmarkSpec) { s.PerLayer[0].Name = "gpu issues" },
		"name starting with dot":  func(s *benchmarkSpec) { s.PerLayer[0].Name = ".gpu" },
		"name of 65 characters":   func(s *benchmarkSpec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"name used twice":         func(s *benchmarkSpec) { s.PerLayer[0].Name = "wall_s" },
		"workload name reused":    func(s *benchmarkSpec) { s.PerLayer[0].Name = s.Workloads[0].Name },
		"17 end-to-end metrics":   func(s *benchmarkSpec) { s.EndToEnd = append(many(16), s.EndToEnd[0]) },
		"129 per-layer metrics":   func(s *benchmarkSpec) { s.PerLayer = many(129) },
		"no setup_s":              func(s *benchmarkSpec) { s.EndToEnd = s.EndToEnd[1:] },
		"setup_s in milliseconds": func(s *benchmarkSpec) { s.EndToEnd[0].Unit = "ms" },
		"bound above a quarter":   func(s *benchmarkSpec) { s.EndToEnd[1].Bound = 0.3 },
		"bound of zero":           func(s *benchmarkSpec) { s.EndToEnd[1].Bound = 0 },
		"unit with a space":       func(s *benchmarkSpec) { s.PerLayer[0].Unit = "per s" },
		"direction":               func(s *benchmarkSpec) { s.PerLayer[0].Better = "faster" },
		"one workload":            func(s *benchmarkSpec) { s.Workloads = s.Workloads[:1] },
		"nine workloads":          func(s *benchmarkSpec) { s.Workloads = append(s.Workloads, make([]workloadDef, 3)...) },
		"why of 201 characters":   func(s *benchmarkSpec) { s.Workloads[0].Why = strings.Repeat("y", 201) },
		"run_seconds 61":          func(s *benchmarkSpec) { s.RunSeconds = 61 },
	} {
		if err := mutate(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BENCHMARK.json is generated (go run ./benchmark -emit-spec); a metric
// added to the tables and not to the file would make the driver refuse
// every run.
func TestCommittedSpecIsCurrent(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var current bytes.Buffer
	if err := writeSpec(&current); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, current.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -emit-spec > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(committed))
	}
}

func TestOracleCatchesWrongOutputs(t *testing.T) {
	seed := oracleSeeds[0]
	e := expected.entry(scaleSmoke, "golden_interp", seed, false)
	if e == nil {
		t.Fatal("expected.json has no smoke entry for golden_interp on the first oracle seed")
	}
	if p := checkExpected(scaleSmoke, "golden_interp", seed, e.Digest, e.Counters); len(p) != 0 {
		t.Errorf("the oracle rejects its own entry: %v", p)
	}
	if p := checkExpected(scaleSmoke, "golden_interp", seed, "0000", nil); len(p) != 1 {
		t.Errorf("a wrong digest gave %d problems, want 1", len(p))
	}
	if p := checkExpected(scaleSmoke, "golden_interp", seed, "", map[string]int64{"issues_per_pass": -1}); len(p) != 1 {
		t.Errorf("a wrong counter gave %d problems, want 1", len(p))
	}
	if p := checkExpected(scaleSmoke, "golden_interp", 12345, "0000", nil); len(p) != 0 {
		t.Errorf("a seed outside the oracle is held to it: %v", p)
	}
}

// Repeats of one input variant must agree exactly; another variant may
// differ, and only variant 0 is the run's digest.
func TestAbsorbHoldsRepeatsToTheirVariant(t *testing.T) {
	cfg := runConfig{workload: "twolevel_paper15", seed: 12345, scale: scaleSmoke}
	res := func(variant int, digest string, n int64) repeatResult {
		return repeatResult{ops: []float64{1}, variant: variant, digest: digest, counters: map[string]int64{"n": n}}
	}
	r := &record{Counters: map[string]int64{}}
	for _, x := range []repeatResult{res(0, "a", 1), res(1, "b", 2), res(0, "a", 1), res(1, "b", 2)} {
		r.absorb(cfg, x)
	}
	if len(r.Problems) != 0 || r.Digest != "a" || r.Counters["n"] != 1 || r.Attempted != 4 {
		t.Errorf("agreeing repeats: problems %v, digest %q, counters %v, attempted %d", r.Problems, r.Digest, r.Counters, r.Attempted)
	}
	r.absorb(cfg, res(1, "a", 2))
	r.absorb(cfg, res(0, "a", 3))
	if len(r.Problems) != 2 {
		t.Errorf("a changed digest and a changed counter gave %d problems, want 2: %v", len(r.Problems), r.Problems)
	}
}

// The smoke scale end to end, oracle included: one traced run exercises
// every workload untraced and traced, every ledger and every equivalence
// guard; the end-to-end path runs on the held-back seed.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tmp := t.TempDir()
	tracePath := filepath.Join(tmp, "trace.json")
	rec, err := run(runConfig{workload: "twolevel_paper15", seed: oracleSeeds[0], trace: true,
		scale: scaleSmoke, tmpRoot: tmp, traceOut: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 2 {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d problems=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
	}
	checkContractLine(t, rec, perLayer)
	if v := rec.Metrics["jobs.cache_hits_cold"].Value; v != 0 {
		t.Errorf("jobs.cache_hits_cold = %v, want 0", v)
	}
	if hits, per := rec.Metrics["jobs.cache_hits_warm"].Value, rec.Metrics["jobs.chunks_per_job"].Value; hits == 0 || math.Mod(hits, per) != 0 {
		t.Errorf("jobs.cache_hits_warm = %v with %v chunks per job: not every chunk hit", hits, per)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := checkChromeTrace(f); err != nil || float64(n) != rec.Metrics["bench.trace_spans"].Value {
		t.Errorf("the kept trace holds %d spans (%v), the run reported %v", n, err, rec.Metrics["bench.trace_spans"].Value)
	}

	for _, w := range []string{"golden_interp", "service_jobs"} {
		rec, err := run(runConfig{workload: w, seed: oracleSeeds[1], scale: scaleSmoke, tmpRoot: tmp})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d problems=%v", w, rec.Correct, rec.Attempted, rec.Problems)
		}
		checkContractLine(t, rec, endToEnd)
		for name, m := range rec.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v; the contract wants it never 0", w, name, m.Value)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "run-*")); len(left) != 0 {
		t.Errorf("runs left files behind: %v", left)
	}
}

// checkContractLine parses the last line as the driver does: exactly four
// keys, and exactly the listed metrics, each a number with its unit.
func checkContractLine(t *testing.T, rec *record, defs []metricDef) {
	t.Helper()
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(rec.contractLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("contract line does not parse: %v\n%s", err, rec.contractLine())
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
		t.Fatalf("contract line lacks a key or a metric: %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("metric %s: present=%v unit=%q, want a finite number in %s", d.Name, ok, m.Unit, d.Unit)
		}
	}
}
