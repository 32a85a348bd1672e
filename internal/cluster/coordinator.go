package cluster

//vetsim:instrumented

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
)

// workerState tracks one worker's registration, its metric handles and
// the latest registry snapshot it pushed. The per-worker handles are
// label-baked per worker name and created once at registration (never in
// a loop), so the hot lease path only touches atomics.
type workerState struct {
	name      string
	lastSeen  time.Time
	granted   int64
	completed int64
	failed    int64

	// Latest pushed registry snapshot (nil until the first metrics
	// heartbeat) and the high-water contribution floors that keep
	// merged counters monotonic across a worker restart (a restarted
	// worker's counters reset to zero; its floor does not).
	metrics    *telemetry.Snapshot
	metricsAt  time.Time
	floorInt   map[string]int64
	floorFloat map[string]float64

	gLeases    *telemetry.Gauge
	cGranted   *telemetry.Counter
	cCompleted *telemetry.Counter
}

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Ledger is the chunk lease state machine (shared with the
	// scheduler's Options.Ledger).
	Ledger *jobs.Ledger
	// Store is the coordinator's content-addressed result store: workers
	// push completions into it and pull dependency chunks out of it.
	Store *store.Store
	// SweepEvery is the lease-expiry sweep interval (<=0 selects TTL/4).
	SweepEvery time.Duration
	// Now overrides the clock (tests). Worker liveness is status-only and
	// never enters artifacts or cache keys.
	Now func() time.Time
	// Registry overrides the metric registry (nil selects the process
	// default). Tests model separate processes by giving each role its
	// own registry.
	Registry *telemetry.Registry
	// Recorder overrides the flight recorder (nil selects the process
	// default). Worker span batches are ingested here; if the recorder
	// has no origin yet it is named "coordinator" so remote parent
	// references resolve.
	Recorder *telemetry.FlightRecorder
	// Log receives structured cluster events (nil discards them).
	Log *slog.Logger
}

// Coordinator owns cluster membership and serves the lease protocol on
// top of a jobs.Ledger and the shared result store.
type Coordinator struct {
	ledger *jobs.Ledger
	store  *store.Store
	sweep  time.Duration
	now    func() time.Time
	reg    *telemetry.Registry
	rec    *telemetry.FlightRecorder
	log    *slog.Logger

	telWorkersLive  *telemetry.Gauge
	telChunksServed *telemetry.Counter

	mu      sync.Mutex
	workers map[string]*workerState

	wg   sync.WaitGroup
	stop context.CancelFunc
}

// NewCoordinator builds a coordinator over a ledger and a store.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Ledger == nil || opts.Store == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a ledger and a store")
	}
	if opts.SweepEvery <= 0 {
		opts.SweepEvery = opts.Ledger.TTL() / 4
		if opts.SweepEvery <= 0 {
			opts.SweepEvery = time.Second
		}
	}
	if opts.Now == nil {
		opts.Now = func() time.Time { return time.Now() } //vetsim:ignore determinism worker liveness is status-only bookkeeping; never enters artifacts or cache keys
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.Default()
	}
	if opts.Recorder == nil {
		opts.Recorder = telemetry.DefaultRecorder()
	}
	if opts.Recorder.Origin() == "" {
		opts.Recorder.SetOrigin("coordinator")
	}
	if opts.Log == nil {
		opts.Log = telemetry.NopLogger()
	}
	return &Coordinator{
		ledger: opts.Ledger,
		store:  opts.Store,
		sweep:  opts.SweepEvery,
		now:    opts.Now,
		reg:    opts.Registry,
		rec:    opts.Recorder,
		log:    opts.Log,
		telWorkersLive: opts.Registry.Gauge("cluster_workers",
			"workers seen within the liveness window"),
		telChunksServed: opts.Registry.Counter("cluster_chunk_fetches_total",
			"dependency payloads served to workers via GET /cluster/chunks"),
		workers: make(map[string]*workerState),
	}, nil
}

// Start launches the lease-expiry sweeper. It runs until ctx is done or
// Stop is called.
func (c *Coordinator) Start(ctx context.Context) {
	ctx, c.stop = context.WithCancel(ctx)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.sweep)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if n := c.ledger.Expire(); n > 0 {
					c.log.Warn("leases expired", "reassigned", n)
				}
				c.refreshGauges()
			}
		}
	}()
}

// Stop halts the sweeper and waits for it to exit.
func (c *Coordinator) Stop() {
	if c.stop != nil {
		c.stop()
	}
	c.wg.Wait()
}

// liveWindow is how long after its last contact a worker still counts as
// live: two TTLs, so one missed heartbeat round does not flap the gauge.
func (c *Coordinator) liveWindow() time.Duration { return 2 * c.ledger.TTL() }

// touch registers or refreshes a worker, creating its metric handles on
// first contact.
func (c *Coordinator) touch(name string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[name]
	if !ok {
		w = &workerState{
			name:       name,
			floorInt:   make(map[string]int64),
			floorFloat: make(map[string]float64),
			gLeases:    c.reg.Gauge("cluster_worker_active_leases", "leases currently held, by worker", telemetry.L("worker", name)),
			cGranted:   c.reg.Counter("cluster_worker_leases_total", "lease grants, by worker", telemetry.L("worker", name)),
			cCompleted: c.reg.Counter("cluster_worker_completed_total", "chunk completions, by worker", telemetry.L("worker", name)),
		}
		c.workers[name] = w
		c.log.Info("worker joined", "worker", name)
	}
	w.lastSeen = c.now()
	return w
}

// refreshGauges recomputes the live-worker count and per-worker lease
// gauges; called from the sweeper and after membership-changing
// requests.
func (c *Coordinator) refreshGauges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	live := int64(0)
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.liveWindow() {
			live++
		}
		w.gLeases.Set(int64(len(c.ledger.ActiveLeases(w.name))))
	}
	c.telWorkersLive.Set(live)
}

// Register mounts the cluster protocol on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/lease", c.handleLease)
	mux.HandleFunc("POST /cluster/complete", c.handleComplete)
	mux.HandleFunc("POST /cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /cluster/workers", c.handleWorkers)
	mux.HandleFunc("GET /cluster/metrics", c.handleClusterMetrics)
	mux.HandleFunc("GET /cluster/chunks/{key}", c.handleChunk)
}

// Handler returns a standalone handler serving only the cluster routes
// (tests; the daemon mounts Register on its own mux).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// Request-body bounds. Lease and heartbeat bodies are control messages (a
// heartbeat's metrics snapshot is a few KiB); a completion carries one
// base64-encoded chunk payload plus its spans, about 0.7 MB for a profile
// chunk at the 4096-pattern cap.
const (
	maxControlBody  = 1 << 20
	maxCompleteBody = 64 << 20
)

// decodeBounded decodes a JSON request body of at most limit bytes into v.
// On failure it answers 413 (too large) or 400 (malformed) itself and
// reports false; nothing has been touched yet at that point.
func decodeBounded(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		clusterError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s request exceeds %d bytes", what, limit))
	case err != nil:
		clusterError(w, http.StatusBadRequest, "bad "+what+" request")
	}
	return err == nil
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBounded(w, r, maxControlBody, "lease", &req) {
		return
	}
	if req.Worker == "" {
		clusterError(w, http.StatusBadRequest, "bad lease request")
		return
	}
	ws := c.touch(req.Worker)
	grants := c.ledger.Lease(req.Worker, req.Max)
	ttl := c.ledger.TTL().Seconds()
	resp := LeaseResponse{}
	for _, g := range grants {
		signed, err := SignGrant(LeaseGrant{
			Lease: g.Lease, Worker: req.Worker, TTLSec: ttl, Work: g.Req,
		})
		if err != nil {
			clusterError(w, http.StatusInternalServerError, "sign grant: "+err.Error())
			return
		}
		resp.Grants = append(resp.Grants, signed)
		// Propagate the scheduler's chunk span context beside the signed
		// grant, and mark the hand-off as a point span in the job trace.
		if !g.Trace.IsZero() {
			if resp.Traces == nil {
				resp.Traces = make(map[string]telemetry.TraceContext, len(grants))
			}
			resp.Traces[g.Lease] = g.Trace
		}
		sp := c.rec.StartSpanContext("lease:"+g.Req.Chunk.ID, g.Trace)
		sp.SetAttr("worker", req.Worker)
		sp.SetAttr("lease", g.Lease)
		sp.End()
		c.log.Debug("lease granted",
			"worker", req.Worker, "lease", g.Lease,
			"job", g.Req.Job, "chunk", g.Req.Chunk.ID, "run", g.Trace.Trace)
	}
	c.mu.Lock()
	ws.granted += int64(len(grants))
	c.mu.Unlock()
	for range grants {
		ws.cGranted.Inc()
	}
	c.refreshGauges()
	clusterJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBounded(w, r, maxCompleteBody, "complete", &req) {
		return
	}
	if req.Worker == "" || req.Key == "" {
		clusterError(w, http.StatusBadRequest, "bad complete request")
		return
	}
	ws := c.touch(req.Worker)
	if req.Error == "" {
		// Store first, then flip the ledger: a waiter woken by Complete
		// must find the payload. Duplicate keys are dedup hits by
		// construction (content-addressed), never conflicting writes.
		if err := c.store.Put(req.Key, req.Payload); err != nil {
			clusterError(w, http.StatusInternalServerError, "store: "+err.Error())
			return
		}
	}
	tc := c.ledger.TraceOf(req.Key)
	// Stitch the worker's span subtree in before the ledger transition:
	// Complete wakes the scheduler's waiters, and a waiter that then
	// exports the job trace must already see the chunk's remote spans.
	c.rec.Ingest(req.Spans)
	outcome := c.ledger.Complete(req.Lease, req.Worker, req.Key, req.Error)
	c.mu.Lock()
	switch {
	case req.Error != "":
		ws.failed++
	case outcome == jobs.CompleteOK:
		ws.completed++
	}
	c.mu.Unlock()
	if req.Error == "" && outcome == jobs.CompleteOK {
		ws.cCompleted.Inc()
	}
	// Mark the ledger transition as a point span parented like the lease
	// span.
	name := "complete"
	if tc.Chunk != "" {
		name = "complete:" + tc.Chunk
	}
	sp := c.rec.StartSpanContext(name, tc)
	sp.SetAttr("worker", req.Worker)
	sp.SetAttr("status", string(outcome))
	sp.End()
	if req.Error != "" {
		c.log.Error("chunk failed remotely",
			"worker", req.Worker, "lease", req.Lease, "chunk", tc.Chunk,
			"run", tc.Trace, "error", req.Error)
	} else {
		c.log.Debug("chunk completed",
			"worker", req.Worker, "lease", req.Lease, "chunk", tc.Chunk,
			"run", tc.Trace, "status", string(outcome), "bytes", len(req.Payload))
	}
	c.refreshGauges()
	clusterJSON(w, http.StatusOK, CompleteResponse{Status: string(outcome)})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBounded(w, r, maxControlBody, "heartbeat", &req) {
		return
	}
	if req.Worker == "" {
		clusterError(w, http.StatusBadRequest, "bad heartbeat request")
		return
	}
	ws := c.touch(req.Worker)
	if req.Metrics != nil {
		if req.MetricsSchema == metricsSchema {
			c.absorbMetrics(ws, req.Metrics)
		} else {
			c.log.Warn("ignoring metrics push with unknown schema",
				"worker", req.Worker, "schema", req.MetricsSchema, "want", metricsSchema)
		}
	}
	renewed, lost := c.ledger.Renew(req.Worker, req.Leases)
	clusterJSON(w, http.StatusOK, HeartbeatResponse{Renewed: renewed, Lost: lost})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	now := c.now()
	resp := WorkersResponse{Ledger: c.ledger.Stats()}
	for _, name := range names {
		ws := c.workers[name]
		age := now.Sub(ws.lastSeen)
		resp.Workers = append(resp.Workers, WorkerInfo{
			Name:         name,
			LastSeenSec:  age.Seconds(),
			Live:         age <= c.liveWindow(),
			ActiveLeases: c.ledger.ActiveLeases(name),
			Granted:      ws.granted,
			Completed:    ws.completed,
			Failed:       ws.failed,
		})
	}
	c.mu.Unlock()
	clusterJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleChunk(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := c.store.Get(key)
	if !ok {
		clusterError(w, http.StatusNotFound, "no such chunk")
		return
	}
	c.telChunksServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func clusterError(w http.ResponseWriter, code int, msg string) {
	clusterJSON(w, code, map[string]string{"error": msg})
}
