package cluster

//vetsim:instrumented

import (
	"net/http"
	"sort"

	"gpufaultsim/internal/telemetry"
)

// absorbMetrics stores a worker's freshly pushed registry snapshot and
// advances its high-water contribution floors. The floors are what make
// the fleet-wide merge monotonic-counter-safe: a worker that restarts
// resets its own counters to zero, but the work it already reported
// stays in the merged totals at the floor. Called with c.mu NOT held.
func (c *Coordinator) absorbMetrics(ws *workerState, snap *telemetry.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws.metrics = snap
	ws.metricsAt = c.now()
	for k, v := range snap.Counters {
		if v > ws.floorInt[k] {
			ws.floorInt[k] = v
		}
	}
	for k, v := range snap.FloatCounters {
		if v > ws.floorFloat[k] {
			ws.floorFloat[k] = v
		}
	}
}

// contribution builds the snapshot a worker contributes to the merge:
// counters come from the high-water floors (monotonic across restarts),
// everything instantaneous (gauges, histograms) from the latest push.
// Caller holds c.mu.
func (ws *workerState) contribution() telemetry.Snapshot {
	out := telemetry.Snapshot{
		Counters:      make(map[string]int64, len(ws.floorInt)),
		FloatCounters: make(map[string]float64, len(ws.floorFloat)),
		Gauges:        map[string]int64{},
		Histograms:    map[string]telemetry.HistogramSnapshot{},
	}
	for k, v := range ws.floorInt {
		out.Counters[k] = v
	}
	for k, v := range ws.floorFloat {
		out.FloatCounters[k] = v
	}
	if ws.metrics != nil {
		for k, v := range ws.metrics.Gauges {
			out.Gauges[k] = v
		}
		for k, h := range ws.metrics.Histograms {
			out.Histograms[k] = h
		}
	}
	return out
}

// handleClusterMetrics serves the fleet-wide metrics view: the
// coordinator's own registry snapshot merged with every worker's pushed
// contribution. Workers whose last push predates the liveness window are
// marked stale but still merged — completed work does not vanish from
// the totals when its worker goes quiet. ?format=prometheus renders the
// merged snapshot as Prometheus text; the default is canonical JSON with
// the per-role breakdown.
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	merged := c.reg.Snapshot()
	resp := ClusterMetrics{Schema: metricsSchema, Coordinator: c.reg.Snapshot()}

	c.mu.Lock()
	names := make([]string, 0, len(c.workers))
	for name, ws := range c.workers {
		if ws.metrics == nil {
			continue // never pushed metrics: nothing to merge or show
		}
		names = append(names, name)
	}
	sort.Strings(names)
	now := c.now()
	for _, name := range names {
		ws := c.workers[name]
		age := now.Sub(ws.metricsAt)
		contrib := ws.contribution()
		telemetry.MergeInto(&merged, contrib)
		resp.Workers = append(resp.Workers, WorkerMetrics{
			Worker:   name,
			AgeSec:   age.Seconds(),
			Stale:    age > c.liveWindow(),
			Snapshot: contrib,
		})
	}
	c.mu.Unlock()

	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		telemetry.WriteSnapshotPrometheus(w, merged)
		return
	}
	resp.Merged = merged
	clusterJSON(w, http.StatusOK, resp)
}
