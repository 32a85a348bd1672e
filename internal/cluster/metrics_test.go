package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
)

// fakeClock is an injectable coordinator clock; the metrics tests drive
// liveness and staleness deterministically through it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newMetricsCoordinator builds an unstarted coordinator (no sweeper: the
// fake clock alone decides liveness) on private telemetry, so these
// tests never touch the process-default registry or recorder.
func newMetricsCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *fakeClock, *jobs.Ledger, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	led := jobs.NewLedger(jobs.LedgerOptions{TTL: ttl})
	clk := newFakeClock()
	c, err := NewCoordinator(CoordinatorOptions{
		Ledger: led, Store: st, Now: clk.Now,
		Registry: telemetry.NewRegistry(),
		Recorder: telemetry.NewFlightRecorder(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, clk, led, srv
}

func pushMetrics(t *testing.T, url, worker string, snap telemetry.Snapshot) {
	t.Helper()
	var hr HeartbeatResponse
	code := postJSON(t, url+"/cluster/heartbeat", HeartbeatRequest{
		Worker: worker, MetricsSchema: metricsSchema, Metrics: &snap,
	}, &hr)
	if code != http.StatusOK {
		t.Fatalf("metrics heartbeat status = %d", code)
	}
}

func getClusterMetrics(t *testing.T, url string) ClusterMetrics {
	t.Helper()
	resp, err := http.Get(url + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cm ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	return cm
}

// checkMergeArithmetic verifies the response is internally consistent:
// every merged counter equals the coordinator's own value plus the sum
// of the per-worker contributions, exactly.
func checkMergeArithmetic(t *testing.T, cm ClusterMetrics) {
	t.Helper()
	wantInt := make(map[string]int64)
	for k, v := range cm.Coordinator.Counters {
		wantInt[k] += v
	}
	wantFloat := make(map[string]float64)
	for k, v := range cm.Coordinator.FloatCounters {
		wantFloat[k] += v
	}
	for _, wm := range cm.Workers {
		for k, v := range wm.Snapshot.Counters {
			wantInt[k] += v
		}
		for k, v := range wm.Snapshot.FloatCounters {
			wantFloat[k] += v
		}
	}
	for k, want := range wantInt {
		if got := cm.Merged.Counters[k]; got != want {
			t.Fatalf("merged counter %s = %d, want coordinator+workers = %d", k, got, want)
		}
	}
	for k, want := range wantFloat {
		if got := cm.Merged.FloatCounters[k]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("merged float counter %s = %v, want coordinator+workers = %v", k, got, want)
		}
	}
}

func TestClusterMetricsMergesWorkerPushes(t *testing.T) {
	_, _, _, srv := newMetricsCoordinator(t, time.Minute)
	pushMetrics(t, srv.URL, "w1", telemetry.Snapshot{
		Counters:      map[string]int64{"cluster_chunks_computed_total": 5},
		FloatCounters: map[string]float64{"worker_busy_seconds": 1.5},
	})
	pushMetrics(t, srv.URL, "w2", telemetry.Snapshot{
		Counters: map[string]int64{"cluster_chunks_computed_total": 4},
	})

	cm := getClusterMetrics(t, srv.URL)
	if cm.Schema != metricsSchema {
		t.Fatalf("schema = %d, want %d", cm.Schema, metricsSchema)
	}
	if len(cm.Workers) != 2 || cm.Workers[0].Worker != "w1" || cm.Workers[1].Worker != "w2" {
		t.Fatalf("workers = %+v, want sorted [w1 w2]", cm.Workers)
	}
	for _, wm := range cm.Workers {
		if wm.Stale {
			t.Fatalf("worker %s stale immediately after push", wm.Worker)
		}
	}
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != 9 {
		t.Fatalf("merged computed total = %d, want 5+4", got)
	}
	if got := cm.Merged.FloatCounters["worker_busy_seconds"]; got != 1.5 {
		t.Fatalf("merged busy seconds = %v, want 1.5", got)
	}
	// The coordinator's own registry still shows through the merge.
	if _, ok := cm.Merged.Gauges["cluster_workers"]; !ok {
		t.Fatal("merged snapshot lost the coordinator's own cluster_workers gauge")
	}
	checkMergeArithmetic(t, cm)
}

// TestClusterMetricsMonotonicAcrossWorkerRestart simulates a worker
// restart: its counters reset to zero, but the work it already reported
// must stay in the merged totals at the high-water floor.
func TestClusterMetricsMonotonicAcrossWorkerRestart(t *testing.T) {
	_, _, _, srv := newMetricsCoordinator(t, time.Minute)
	counters := func(n int64) telemetry.Snapshot {
		return telemetry.Snapshot{Counters: map[string]int64{"cluster_chunks_computed_total": n}}
	}
	pushMetrics(t, srv.URL, "w1", counters(5))
	pushMetrics(t, srv.URL, "w1", counters(2)) // restarted: counter went backwards
	cm := getClusterMetrics(t, srv.URL)
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != 5 {
		t.Fatalf("merged total after restart = %d, want floor 5", got)
	}
	// The restarted worker catches up past its floor; the floor advances.
	pushMetrics(t, srv.URL, "w1", counters(7))
	cm = getClusterMetrics(t, srv.URL)
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != 7 {
		t.Fatalf("merged total after catch-up = %d, want 7", got)
	}
	checkMergeArithmetic(t, cm)
}

// TestClusterMetricsStaleWorkerStaysMerged advances the clock past the
// liveness window: the quiet worker is marked stale but its completed
// work must not vanish from the fleet totals.
func TestClusterMetricsStaleWorkerStaysMerged(t *testing.T) {
	_, clk, _, srv := newMetricsCoordinator(t, time.Minute) // liveWindow = 2min
	pushMetrics(t, srv.URL, "w1", telemetry.Snapshot{
		Counters: map[string]int64{"cluster_chunks_computed_total": 3},
	})
	clk.Advance(5 * time.Minute)
	cm := getClusterMetrics(t, srv.URL)
	if len(cm.Workers) != 1 {
		t.Fatalf("workers = %d, want the stale one still listed", len(cm.Workers))
	}
	wm := cm.Workers[0]
	if !wm.Stale {
		t.Fatalf("worker 5min quiet not marked stale (age %.0fs)", wm.AgeSec)
	}
	if math.Abs(wm.AgeSec-300) > 1 {
		t.Fatalf("age = %vs, want ~300", wm.AgeSec)
	}
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != 3 {
		t.Fatalf("stale worker's work dropped from merge: %d, want 3", got)
	}
}

// TestClusterMetricsUnknownSchemaIgnored pushes a snapshot tagged with a
// future schema; merging values whose semantics may have shifted would
// be worse than dropping them, so the push must be ignored wholesale.
func TestClusterMetricsUnknownSchemaIgnored(t *testing.T) {
	_, _, _, srv := newMetricsCoordinator(t, time.Minute)
	var hr HeartbeatResponse
	postJSON(t, srv.URL+"/cluster/heartbeat", HeartbeatRequest{
		Worker: "w1", MetricsSchema: 99,
		Metrics: &telemetry.Snapshot{Counters: map[string]int64{"cluster_chunks_computed_total": 5}},
	}, &hr)
	cm := getClusterMetrics(t, srv.URL)
	if len(cm.Workers) != 0 {
		t.Fatalf("unknown-schema push produced worker rows: %+v", cm.Workers)
	}
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != 0 {
		t.Fatalf("unknown-schema counters leaked into the merge: %d", got)
	}
}

func TestClusterMetricsPrometheusFormat(t *testing.T) {
	_, _, _, srv := newMetricsCoordinator(t, time.Minute)
	pushMetrics(t, srv.URL, "w1", telemetry.Snapshot{
		Counters: map[string]int64{"cluster_chunks_computed_total": 5},
	})
	resp, err := http.Get(srv.URL + "/cluster/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"cluster_chunks_computed_total 5",
		`cluster_worker_completed_total{worker="w1"}`,
		"cluster_workers",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, body)
		}
	}
}

// TestNoThroughputSeriesAndOldWorkerHeartbeat pins the wire shape after
// the throughput EWMA's removal: /cluster/workers rows and the merged
// exposition carry no throughput or float-gauge keys, and a heartbeat
// from a worker built before the removal — its snapshot still has a
// float_gauges map — is accepted and its counters merged.
func TestNoThroughputSeriesAndOldWorkerHeartbeat(t *testing.T) {
	_, _, _, srv := newMetricsCoordinator(t, time.Minute)
	old := json.RawMessage(`{"worker":"old","metrics_schema":1,"metrics":{
		"counters":{"cluster_chunks_computed_total":3},"gauges":{},
		"float_gauges":{"worker_rate{worker=\"old\"}":0.5},
		"histograms":{}}}`)
	if code := postJSON(t, srv.URL+"/cluster/heartbeat", old, &HeartbeatResponse{}); code != http.StatusOK {
		t.Fatalf("old-worker heartbeat status = %d", code)
	}
	cm := getClusterMetrics(t, srv.URL)
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != 3 {
		t.Fatalf("old worker's counters not merged: %d, want 3", got)
	}

	for _, path := range []string{"/cluster/workers", "/cluster/metrics", "/cluster/metrics?format=prometheus"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if path == "/cluster/workers" && !strings.Contains(string(b), `"name":"old"`) {
			t.Fatalf("%s has no row for the old worker:\n%s", path, b)
		}
		for _, gone := range []string{"throughput", "float_gauges"} {
			if strings.Contains(string(b), gone) {
				t.Fatalf("%s still carries %q:\n%s", path, gone, b)
			}
		}
	}
}
