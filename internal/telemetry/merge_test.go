package telemetry

import (
	"strings"
	"testing"
)

func TestFloatCounterAndGauge(t *testing.T) {
	SetEnabled(true)
	r := NewRegistry()
	fc := r.FloatCounter("idle_seconds_test", "t")
	fc.Add(1.5)
	fc.Add(0.25)
	fc.Add(-3) // ignored: monotonic
	fc.Add(0)  // ignored
	if got := fc.Value(); got != 1.75 {
		t.Fatalf("FloatCounter = %v, want 1.75", got)
	}
	g := r.Gauge("leases_test", "t", L("worker", "a"))
	g.Set(5)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("Gauge = %v, want 2", got)
	}
	snap := r.Snapshot()
	if snap.FloatCounters["idle_seconds_test"] != 1.75 {
		t.Fatalf("snapshot float counter: %+v", snap.FloatCounters)
	}
	if snap.Gauges[`leases_test{worker="a"}`] != 2 {
		t.Fatalf("snapshot gauge: %+v", snap.Gauges)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE idle_seconds_test counter",
		"idle_seconds_test 1.75",
		"# TYPE leases_test gauge",
		`leases_test{worker="a"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMergeInto checks the aggregation semantics /cluster/metrics
// relies on: counters and gauges sum, histograms merge bucket-wise with
// recomputed quantiles, and mismatched histogram layouts are skipped.
func TestMergeInto(t *testing.T) {
	SetEnabled(true)
	a := NewRegistry()
	b := NewRegistry()

	a.Counter("chunks_total", "t").Add(3)
	b.Counter("chunks_total", "t").Add(4)
	b.Counter("worker_only_total", "t").Add(2)
	a.Gauge("depth", "t").Set(5)
	b.Gauge("depth", "t").Set(7)
	a.FloatCounter("idle_seconds", "t").Add(0.5)
	b.FloatCounter("idle_seconds", "t").Add(0.25)

	ha := a.Histogram("lat_seconds", "t", []float64{1, 2})
	hb := b.Histogram("lat_seconds", "t", []float64{1, 2})
	ha.Observe(0.5)
	hb.Observe(1.5)
	hb.Observe(10)
	b.Histogram("odd_seconds", "t", []float64{9}).Observe(1)

	merged := a.Snapshot()
	MergeInto(&merged, b.Snapshot())

	if merged.Counters["chunks_total"] != 7 {
		t.Fatalf("counter merge: %d", merged.Counters["chunks_total"])
	}
	if merged.Counters["worker_only_total"] != 2 {
		t.Fatalf("new counter key not merged: %+v", merged.Counters)
	}
	if merged.Gauges["depth"] != 12 {
		t.Fatalf("gauge merge: %d", merged.Gauges["depth"])
	}
	if merged.FloatCounters["idle_seconds"] != 0.75 {
		t.Fatalf("float counter merge: %v", merged.FloatCounters["idle_seconds"])
	}
	h := merged.Histograms["lat_seconds"]
	if h.Count != 3 || h.Sum != 12 {
		t.Fatalf("histogram merge: count=%d sum=%v", h.Count, h.Sum)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("histogram bucket merge: %v", h.Counts)
	}
	if h.P99 <= 0 {
		t.Fatalf("merged histogram quantiles not recomputed: %+v", h)
	}
	if _, ok := merged.Histograms["odd_seconds"]; !ok {
		t.Fatal("histogram present only in src must carry over")
	}

	// Merging must not corrupt on layout mismatch.
	c := NewRegistry()
	c.Histogram("lat_seconds", "t", []float64{5}).Observe(1)
	MergeInto(&merged, c.Snapshot())
	if got := merged.Histograms["lat_seconds"].Count; got != 3 {
		t.Fatalf("mismatched layout merged anyway: count=%d", got)
	}

	// Snapshot-based renderer handles merged views without a registry.
	var out strings.Builder
	if err := WriteSnapshotPrometheus(&out, merged); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"# TYPE chunks_total counter",
		"chunks_total 7",
		"depth 12",
		"idle_seconds 0.75",
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot exposition missing %q:\n%s", want, s)
		}
	}
}

func TestRecorderCapFromEnv(t *testing.T) {
	t.Setenv("GPUFAULTSIM_TRACE_SPANS", "")
	if got := recorderCapFromEnv(); got != DefaultRecorderCap {
		t.Fatalf("empty env: %d", got)
	}
	t.Setenv("GPUFAULTSIM_TRACE_SPANS", "128")
	if got := recorderCapFromEnv(); got != 128 {
		t.Fatalf("128: %d", got)
	}
	t.Setenv("GPUFAULTSIM_TRACE_SPANS", "0")
	if got := recorderCapFromEnv(); got != DefaultRecorderCap {
		t.Fatalf("zero falls back: %d", got)
	}
	t.Setenv("GPUFAULTSIM_TRACE_SPANS", "junk")
	if got := recorderCapFromEnv(); got != DefaultRecorderCap {
		t.Fatalf("junk falls back: %d", got)
	}
}
