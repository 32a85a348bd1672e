package telemetry

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenRegistry builds the deterministic registry behind the
// exposition golden file.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("jobs_chunks_total", "chunks completed", L("source", "cache")).Add(3)
	r.Counter("jobs_chunks_total", "chunks completed", L("source", "computed")).Add(5)
	r.Gauge("jobs_queue_depth", "jobs waiting").Set(2)
	h := r.Histogram("jobs_chunk_seconds", "chunk latency", []float64{0.5, 1, 2}, L("phase", "gate"))
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(5)
	hb := r.Histogram("store_put_size_bytes", "inserted payload sizes", []float64{256, 1024})
	hb.Observe(100)
	hb.Observe(512)
	hb.Observe(4096)
	return r
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// promLine is the shape serve_smoke.sh asserts too: comment, or
// name{labels} value.
var promLine = regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+(Inf)?)$`)

func TestPrometheusLinesWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

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
