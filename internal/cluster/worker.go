package cluster

//vetsim:instrumented

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
)

// chunkRecorderCap bounds the throwaway per-chunk recorder that collects
// the span subtree shipped with a completion. A chunk records a handful
// of spans (root + compute + put), so this never wraps in practice.
const chunkRecorderCap = 32

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (lease ownership,
	// /cluster/workers rows, per-worker metrics). Must be unique per
	// cluster.
	Name string
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Store is the worker's local content-addressed cache: computed
	// payloads land here before being pushed, and dependency chunks are
	// resolved here with remote read-through to the coordinator.
	Store *store.Store
	// BatchWorkers bounds intra-campaign fault-batch parallelism per
	// gate chunk (<=0 selects GOMAXPROCS, as everywhere the knob appears;
	// gatesim resolves it). Never influences payload bytes.
	BatchWorkers int
	// MaxLeases is how many chunks to request per poll (<=0 selects 1).
	MaxLeases int
	// Poll is the idle/backoff poll interval (<=0 selects 250ms).
	Poll time.Duration
	// MetricsEvery is the cadence of metrics-bearing heartbeats (<=0
	// selects 2s). These run independently of lease renewal so an idle
	// worker stays visible in /cluster/metrics.
	MetricsEvery time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Registry is the registry snapshotted on metrics pushes (nil selects
	// the process default). Tests model separate processes by giving each
	// worker its own registry.
	Registry *telemetry.Registry
	// Recorder receives the worker's copy of every chunk span subtree
	// (nil selects the process default). If it has no origin yet it is
	// named after the worker so trace stitching can attribute its spans.
	Recorder *telemetry.FlightRecorder
	// Log receives structured worker events (nil discards them).
	Log *slog.Logger
	// BeforeCompute, when set, runs before each chunk computation (test
	// hook for wedging a worker mid-lease). If it returns after ctx is
	// canceled the chunk is abandoned without a completion, exactly like
	// a worker death.
	BeforeCompute func(ctx context.Context, req jobs.ChunkRequest)
}

// Worker pulls chunk leases from a coordinator, computes them with the
// shared executor, and pushes payloads back under their content-addressed
// keys. Run loops until its context is canceled; heartbeats renew the
// active lease while a chunk computes, so a wedged or dead worker loses
// its leases to TTL expiry and nothing else. Each completion also ships
// the chunk's span subtree (rooted under the coordinator's chunk span)
// and a metrics goroutine pushes registry snapshots on heartbeats.
type Worker struct {
	opts      WorkerOptions
	client    *http.Client
	reg       *telemetry.Registry
	rec       *telemetry.FlightRecorder
	log       *slog.Logger
	connected atomic.Bool
	stop      context.CancelFunc

	telComputed  *telemetry.Counter
	telErrors    *telemetry.Counter
	telDedup     *telemetry.Counter
	telComputeHg *telemetry.Histogram
}

// NewWorker validates options and builds a worker, creating its metric
// handles once here (never per chunk).
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" || opts.Coordinator == "" || opts.Store == nil {
		return nil, fmt.Errorf("cluster: worker needs a name, a coordinator URL and a store")
	}
	if opts.MaxLeases <= 0 {
		opts.MaxLeases = 1
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	if opts.MetricsEvery <= 0 {
		opts.MetricsEvery = 2 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.Default()
	}
	if opts.Recorder == nil {
		opts.Recorder = telemetry.DefaultRecorder()
	}
	if opts.Recorder.Origin() == "" {
		opts.Recorder.SetOrigin(opts.Name)
	}
	if opts.Log == nil {
		opts.Log = telemetry.NopLogger()
	}
	// Bake the identity in once; every worker log line carries it without
	// the call sites repeating (or duplicating) the attr.
	opts.Log = opts.Log.With(slog.String("worker", opts.Name))
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		opts:   opts,
		client: client,
		reg:    opts.Registry,
		rec:    opts.Recorder,
		log:    opts.Log,
		telComputed: opts.Registry.Counter("cluster_chunks_computed_total",
			"chunks computed by workers in this process"),
		telErrors: opts.Registry.Counter("cluster_worker_errors_total",
			"worker protocol or compute errors"),
		telDedup: opts.Registry.Counter("cluster_chunks_local_dedup_total",
			"leased chunks already present in the worker's local store"),
		telComputeHg: opts.Registry.Histogram("cluster_worker_compute_seconds",
			"chunk computation latency on workers", telemetry.SecondsBuckets()),
	}, nil
}

// Connected reports whether the last coordinator exchange succeeded
// (worker readiness).
func (w *Worker) Connected() bool { return w.connected.Load() }

// Recorder exposes the worker's flight recorder (the worker-side copy of
// every chunk trace) for debug endpoints and tests.
func (w *Worker) Recorder() *telemetry.FlightRecorder { return w.rec }

// Stop cancels a running Run loop.
func (w *Worker) Stop() {
	if w.stop != nil {
		w.stop()
	}
}

// Run is the worker main loop: lease, compute, complete, repeat. It
// returns the context's error once canceled (via ctx or Stop). A
// sibling goroutine pushes metrics snapshots for the loop's lifetime.
func (w *Worker) Run(ctx context.Context) error {
	ctx, w.stop = context.WithCancel(ctx)
	defer w.stop()
	go w.metricsLoop(ctx)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.lease(ctx)
		if err != nil {
			w.connected.Store(false)
			if ctx.Err() == nil {
				w.telErrors.Inc()
				w.log.Warn("lease poll failed", "error", err)
			}
			sleepCtx(ctx, w.opts.Poll)
			continue
		}
		w.connected.Store(true)
		if len(resp.Grants) == 0 {
			sleepCtx(ctx, w.opts.Poll)
			continue
		}
		for _, g := range resp.Grants {
			w.process(ctx, g, resp.Traces[g.Lease])
		}
	}
}

// metricsLoop pushes registry snapshots on the metrics cadence until the
// run scope ends. Push failures are dropped silently: the next tick
// carries a fresher snapshot anyway, and lease heartbeats report
// connectivity loss already.
func (w *Worker) metricsLoop(ctx context.Context) {
	t := time.NewTicker(w.opts.MetricsEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = w.PushMetrics(ctx)
		}
	}
}

// PushMetrics sends one metrics-bearing heartbeat (no lease renewal):
// the full registry snapshot tagged with the metrics schema. Exported so
// tests and shutdown paths can force a final push.
func (w *Worker) PushMetrics(ctx context.Context) error {
	snap := w.reg.Snapshot()
	var resp HeartbeatResponse
	return w.post(ctx, "/cluster/heartbeat", HeartbeatRequest{
		Worker:        w.opts.Name,
		MetricsSchema: metricsSchema,
		Metrics:       &snap,
	}, &resp)
}

// process executes one granted chunk end to end, recording its span
// subtree into a chunk-local recorder whose batch ships with the
// completion (and is kept locally for the worker's own trace view).
func (w *Worker) process(ctx context.Context, g LeaseGrant, tc telemetry.TraceContext) {
	crec := telemetry.NewFlightRecorder(chunkRecorderCap)
	crec.SetOrigin(w.opts.Name)
	root := crec.StartSpanContext("chunk:"+g.Work.Chunk.ID, tc)
	root.SetAttr("worker", w.opts.Name)
	root.SetAttr("lease", g.Lease)

	if err := VerifyGrant(g); err != nil {
		// Protocol skew: report it so the chunk fails loudly instead of
		// the grant being silently dropped and endlessly reassigned.
		w.telErrors.Inc()
		w.log.Error("grant rejected", "lease", g.Lease, "error", err)
		root.SetAttr("error", err.Error())
		w.complete(ctx, g, nil, err, w.endChunk(crec, root))
		return
	}

	// Local dedup: a previous campaign on this worker may already hold
	// the payload.
	if payload, ok := w.opts.Store.Get(g.Work.Key); ok {
		w.telDedup.Inc()
		root.SetAttr("dedup", "local")
		w.log.Debug("chunk deduplicated locally", "lease", g.Lease, "chunk", g.Work.Chunk.ID, "run", tc.Trace)
		w.complete(ctx, g, payload, nil, w.endChunk(crec, root))
		return
	}

	// Renew the lease while the chunk computes. The loop runs as a
	// method goroutine (no captured writes) and stops with this scope.
	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	go w.heartbeatLoop(hbCtx, g)

	if w.opts.BeforeCompute != nil {
		w.opts.BeforeCompute(ctx, g.Work)
	}
	if ctx.Err() != nil {
		// Worker stopped mid-lease: abandon without completing, exactly
		// like a crash. The coordinator expires the lease and reassigns.
		return
	}

	sp := root.Child("compute")
	t := telemetry.StartTimer(w.telComputeHg)
	payload, err := jobs.ComputeChunk(g.Work, w.depFetcher(ctx), w.opts.BatchWorkers)
	t.Stop()
	sp.End()
	if err != nil {
		w.telErrors.Inc()
		w.log.Error("chunk compute failed", "lease", g.Lease, "chunk", g.Work.Chunk.ID,
			"run", tc.Trace, "error", err)
		root.SetAttr("error", err.Error())
		w.complete(ctx, g, nil, err, w.endChunk(crec, root))
		return
	}
	w.telComputed.Inc()
	// Cache locally first so future leases and dependency lookups hit.
	sp = root.Child("put")
	if err := w.opts.Store.Put(g.Work.Key, payload); err != nil {
		w.telErrors.Inc()
		w.log.Warn("local store put failed", "chunk", g.Work.Chunk.ID, "error", err)
	}
	sp.End()
	w.log.Debug("chunk computed", "lease", g.Lease, "chunk", g.Work.Chunk.ID,
		"run", tc.Trace, "bytes", len(payload))
	w.complete(ctx, g, payload, nil, w.endChunk(crec, root))
}

// endChunk closes the chunk root span and drains the chunk-local
// recorder into the batch shipped with the completion. The worker's own
// recorder ingests a copy so /debug/trace on the worker shows the same
// subtree the coordinator stitches.
func (w *Worker) endChunk(crec *telemetry.FlightRecorder, root *telemetry.Span) []telemetry.SpanRecord {
	root.End()
	spans, _ := crec.Snapshot()
	w.rec.Ingest(spans)
	return spans
}

// depFetcher resolves dependency chunks (the profiling payload for gate
// chunks): local store first, then the coordinator's chunk endpoint.
func (w *Worker) depFetcher(ctx context.Context) func(key string) ([]byte, error) {
	return func(key string) ([]byte, error) {
		return w.opts.Store.GetOrFetch(key, func(k string) ([]byte, error) {
			return w.fetchChunk(ctx, k)
		})
	}
}

// heartbeatLoop renews one lease at a third of its TTL until the scope
// ends or the coordinator reports the lease lost (expired and
// reassigned — the in-flight computation then completes late, which the
// content-addressed store makes harmless).
func (w *Worker) heartbeatLoop(ctx context.Context, g LeaseGrant) {
	interval := time.Duration(g.TTLSec / 3 * float64(time.Second))
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp HeartbeatResponse
			err := w.post(ctx, "/cluster/heartbeat",
				HeartbeatRequest{Worker: w.opts.Name, Leases: []string{g.Lease}}, &resp)
			if err != nil {
				continue // transient; the TTL gives us slack to retry
			}
			for _, lost := range resp.Lost {
				if lost == g.Lease {
					w.log.Warn("lease lost", "lease", g.Lease, "chunk", g.Work.Chunk.ID)
					return
				}
			}
		}
	}
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	var resp LeaseResponse
	err := w.post(ctx, "/cluster/lease",
		LeaseRequest{Worker: w.opts.Name, Max: w.opts.MaxLeases}, &resp)
	return resp, err
}

// complete pushes a payload (or the compute error) plus the chunk's span
// batch back to the coordinator. Uses a background-derived context so a
// worker stopping right after finishing a chunk still delivers the
// result.
func (w *Worker) complete(ctx context.Context, g LeaseGrant, payload []byte, compErr error, spans []telemetry.SpanRecord) {
	req := CompleteRequest{
		Worker: w.opts.Name, Lease: g.Lease, Key: g.Work.Key,
		Payload: payload, Spans: spans,
	}
	if compErr != nil {
		req.Error = compErr.Error()
	}
	var resp CompleteResponse
	if err := w.post(context.WithoutCancel(ctx), "/cluster/complete", req, &resp); err != nil {
		w.telErrors.Inc()
		w.log.Warn("complete push failed", "lease", g.Lease, "error", err)
	}
}

// fetchChunk pulls one dependency payload from the coordinator.
func (w *Worker) fetchChunk(ctx context.Context, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.opts.Coordinator+"/cluster/chunks/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: GET /cluster/chunks/%s: %s", key, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// post sends one JSON request to the coordinator and decodes the reply.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: POST %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
