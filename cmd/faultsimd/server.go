package main

//vetsim:instrumented

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"

	"gpufaultsim/internal/cluster"
	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
)

// telSubmitSeconds times the POST /jobs round trip server-side — decode,
// admission, job record — into the shared latency bucketing: the daemon's
// own view of submission latency on /metrics.
var telSubmitSeconds = telemetry.Default().Histogram(
	"http_submit_seconds", "POST /jobs handling latency",
	telemetry.LatencyBuckets())

// maxSpecBody bounds a POST /jobs body. A spec is a handful of scalars and
// two workload-name lists; the largest valid one is under 1 KiB.
const maxSpecBody = 64 << 10

// metrics is the /metrics JSON payload: the scheduler-scoped view an
// operator needs to judge cache effectiveness and daemon load at a
// glance, plus the process-wide telemetry registry snapshot (counters,
// gauges, histograms from every instrumented package).
type metrics struct {
	Jobs         int                `json:"jobs"`
	QueueDepth   int                `json:"queue_depth"`
	Pending      int                `json:"pending"`
	CacheEntries int                `json:"cache_entries"`
	CacheBytes   int64              `json:"cache_bytes"`
	CacheBudget  int64              `json:"cache_budget"`
	CacheHits    int64              `json:"cache_hits"`
	CacheMisses  int64              `json:"cache_misses"`
	CachePuts    int64              `json:"cache_puts"`
	Evictions    int64              `json:"cache_evictions"`
	CacheHitRate float64            `json:"cache_hit_rate"`
	PhaseSec     map[string]float64 `json:"phase_seconds"`
	Registry     telemetry.Snapshot `json:"registry"`
}

// serverDeps are the components newServer wires together. store backs
// the /readyz writability probe; coord, when non-nil (coordinator role),
// mounts the cluster lease protocol on the same surface.
type serverDeps struct {
	sched       *jobs.Scheduler
	store       *store.Store
	coord       *cluster.Coordinator
	enablePprof bool
}

// newServer wires the scheduler into an http.Handler. Split from main so
// tests can drive the full API through httptest without a listener.
func newServer(deps serverDeps) http.Handler {
	s := deps.sched
	mux := http.NewServeMux()
	// The JSON /metrics body is the scheduler view plus the registry
	// snapshot. The scheduler fields come from one consistent
	// MetricsSnapshot pass rather than field-by-field getters, so a scrape
	// never sees a queue depth from before a job transition paired with
	// phase timings from after it; the pass also refreshes the
	// queue-depth and pending gauges.
	mountCommon(mux, telemetry.DefaultRecorder(), func() any {
		v := s.MetricsSnapshot()
		phases := make(map[string]float64, len(v.PhaseSec))
		for ph, sec := range v.PhaseSec {
			phases[string(ph)] = sec
		}
		return metrics{
			Jobs:         v.Jobs,
			QueueDepth:   v.QueueDepth,
			Pending:      v.Pending,
			CacheEntries: v.Cache.Entries,
			CacheBytes:   v.Cache.Bytes,
			CacheBudget:  v.Cache.Budget,
			CacheHits:    v.Cache.Hits,
			CacheMisses:  v.Cache.Misses,
			CachePuts:    v.Cache.Puts,
			Evictions:    v.Cache.Evictions,
			CacheHitRate: v.Cache.HitRate(),
			PhaseSec:     phases,
			Registry:     telemetry.Default().Snapshot(),
		}
	})

	// Readiness: the daemon can actually take work — the scheduler's
	// worker pool is running (a job accepted before Start would queue
	// indefinitely), it is not draining (a drain rejects every submission
	// while in-flight work finishes, so a balancer must stop routing
	// here), and the result store accepts writes (a read-only or full
	// volume would fail every campaign mid-chunk).
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		reasons := make(map[string]string)
		if !s.Started() {
			reasons["scheduler"] = "worker pool not started"
		}
		if s.Draining() {
			reasons["scheduler"] = "draining: completing in-flight jobs, rejecting new ones"
		}
		if deps.store != nil {
			if err := deps.store.Writable(); err != nil {
				reasons["store"] = err.Error()
			}
		}
		if len(reasons) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unavailable", "reasons": reasons})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	if deps.coord != nil {
		deps.coord.Register(mux)
	}

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		timer := telemetry.StartTimer(telSubmitSeconds)
		defer timer.Stop()
		var spec jobs.Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, "bad spec: "+err.Error())
			return
		}
		// A client-propagated trace context links the client's run trace
		// to the job: the submit point span parents under the client's
		// span, and its job attribute names the job trace the scheduler
		// opens.
		tc := telemetry.ParseTraceContext(r.Header.Get(telemetry.TraceHeader))
		st, err := s.Submit(spec)
		if err != nil {
			// Admission pushback is a retryable client condition, not a
			// server fault: 429 with Retry-After tells a well-behaved
			// load source to back off while in-flight work drains.
			if errors.Is(err, jobs.ErrQueueFull) || errors.Is(err, jobs.ErrDraining) {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, err.Error())
				return
			}
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if !tc.IsZero() {
			sp := telemetry.DefaultRecorder().StartSpanContext("submit:"+st.ID, tc)
			sp.SetAttr("job", st.ID)
			sp.End()
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.Artifact(r.PathValue("id"), r.PathValue("name"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such artifact (job unfinished or name unknown)")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})

	// NDJSON progress stream: one snapshot per line, starting with the
	// current state, closing when the job reaches a terminal state.
	mux.HandleFunc("GET /jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		ch, snap, ok := s.Subscribe(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		enc.Encode(snap)
		if flusher != nil {
			flusher.Flush()
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, open := <-ch:
				if !open {
					return
				}
				enc.Encode(ev)
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	})

	if deps.enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	return mux
}

// newWorkerServer is the worker role's minimal surface: the common
// routes, with the worker's own copy of every chunk trace subtree on
// /debug/trace (the same spans it ships to the coordinator for
// stitching), plus readiness (joined to the coordinator + local store
// writable). Workers take no job submissions — chunks arrive by leasing
// from the coordinator.
func newWorkerServer(wk *cluster.Worker, st *store.Store) http.Handler {
	mux := http.NewServeMux()
	mountCommon(mux, wk.Recorder(), func() any {
		return map[string]any{"registry": telemetry.Default().Snapshot()}
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		reasons := make(map[string]string)
		if !wk.Connected() {
			reasons["coordinator"] = "no successful lease exchange yet"
		}
		if err := st.Writable(); err != nil {
			reasons["store"] = err.Error()
		}
		if len(reasons) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unavailable", "reasons": reasons})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// mountCommon mounts the routes both daemon roles serve the same way.
// GET /healthz is liveness: the process is up and serving, always 200.
// GET /metrics renders the process registry in Prometheus text
// exposition with ?format=prometheus, and view — the role's JSON body —
// otherwise; view runs before the Prometheus rendering too, so gauges
// it refreshes are current there. GET /debug/trace exports rec as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto), or
// one span per line with ?format=ndjson.
func mountCommon(mux *http.ServeMux, rec *telemetry.FlightRecorder, view func() any) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "", "json":
			writeJSON(w, http.StatusOK, view())
		case "prometheus":
			view()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			telemetry.Default().WritePrometheus(w)
		default:
			httpError(w, http.StatusBadRequest, "unknown format (want json or prometheus)")
		}
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "", "trace":
			w.Header().Set("Content-Type", "application/json")
			rec.WriteTrace(w)
		case "ndjson":
			w.Header().Set("Content-Type", "application/x-ndjson")
			rec.WriteNDJSON(w)
		default:
			httpError(w, http.StatusBadRequest, "unknown format (want trace or ndjson)")
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
