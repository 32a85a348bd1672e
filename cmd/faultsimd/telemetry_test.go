package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"gpufaultsim/internal/telemetry"
)

// promLineRE accepts comments and well-formed sample lines of the
// Prometheus text exposition format (0.0.4).
var promLineRE = regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-Inf|NaN|[0-9.eE+-]+))$`)

func TestMetricsFormats(t *testing.T) {
	_, srv, _ := newTestDaemon(t, t.TempDir())
	st := submitJob(t, srv.URL, tinySpecJSON)
	waitDone(t, srv.URL, st.ID)

	// JSON (default) carries the registry snapshot alongside the flat
	// scheduler view.
	m := fetchMetrics(t, srv.URL)
	for _, name := range []string{
		"jobs_submitted_total",
		"jobs_chunks_total{source=\"computed\"}",
		"store_puts_total",
		"campaign_tasks_total",
		"gatesim_patterns_simulated_total",
	} {
		if m.Registry.Counters[name] <= 0 {
			t.Errorf("registry counter %s = %d, want > 0 (have %v)",
				name, m.Registry.Counters[name], m.Registry.Counters)
		}
	}
	if h, ok := m.Registry.Histograms["jobs_chunk_seconds"]; !ok || h.Count == 0 {
		t.Errorf("jobs_chunk_seconds histogram missing or empty: %+v", h)
	}

	// Prometheus exposition: every line must match the text format, and
	// the instrumented packages' families must be present with TYPE lines.
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus content type %q", ct)
	}
	text := string(body)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promLineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE jobs_chunk_seconds histogram",
		"# TYPE store_puts_total counter",
		"# TYPE jobs_queue_depth gauge",
		"jobs_chunk_seconds_bucket{le=\"+Inf\"}",
		"gatesim_faults_classified_total{class=",
		"campaign_workers_busy",
		"http_submit_seconds_count ", // POST /jobs latency, surfaced server-side
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Unknown formats are rejected.
	resp, err = http.Get(srv.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml: status %d, want 400", resp.StatusCode)
	}
}

// TestTraceExportsJobSpanTree is the flight-recorder acceptance check: a
// completed job must leave a span tree (job root -> per-phase/per-chunk
// children) retrievable from /debug/trace in both formats.
func TestTraceExportsJobSpanTree(t *testing.T) {
	telemetry.DefaultRecorder().Reset()
	_, srv, _ := newTestDaemon(t, t.TempDir())
	st := submitJob(t, srv.URL, tinySpecJSON)
	waitDone(t, srv.URL, st.ID)

	// NDJSON: reconstruct the tree and check parent links.
	resp, err := http.Get(srv.URL + "/debug/trace?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	spans := map[string]telemetry.SpanRecord{} // name -> record (names unique here)
	byID := map[uint64]telemetry.SpanRecord{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec telemetry.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		spans[rec.Name] = rec
		byID[rec.ID] = rec
	}
	root, ok := spans["job:"+st.ID]
	if !ok {
		t.Fatalf("no job root span; got %d spans", len(spans))
	}
	if root.Parent != 0 {
		t.Fatalf("job root has parent %d", root.Parent)
	}
	for _, child := range []string{"profile", "gate:wsc", "gate:fetch", "gate:decoder", "sw:vectoradd"} {
		rec, ok := spans[child]
		if !ok {
			t.Fatalf("missing child span %q (have %d spans)", child, len(spans))
		}
		if rec.Parent != root.ID {
			t.Errorf("span %q parent = %d, want job root %d", child, rec.Parent, root.ID)
		}
		if rec.DurUS < 0 {
			t.Errorf("span %q negative duration %d", child, rec.DurUS)
		}
	}

	// Chrome trace JSON: valid JSON with complete events for those spans.
	resp, err = http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "X" {
			t.Errorf("event %q has ph %q, want X", ev.Name, ev.Phase)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"job:" + st.ID, "profile", "gate:wsc"} {
		if !names[want] {
			t.Errorf("trace missing event %q", want)
		}
	}

	// Bad format is rejected.
	resp, err = http.Get(srv.URL + "/debug/trace?format=pb")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=pb: status %d, want 400", resp.StatusCode)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	sched, srv, _ := newTestDaemon(t, t.TempDir())

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(newServer(serverDeps{sched: sched, enablePprof: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", resp.StatusCode)
	}
}
