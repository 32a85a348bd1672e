package jobs

//vetsim:instrumented

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
)

// Scheduler metrics. The queue-depth and pending gauges are refreshed
// by MetricsSnapshot (every /metrics scrape), not on every state
// transition — depth is a derived property of the job table, and the
// scrape path is where a stale gauge would be observed.
var (
	telSubmitted   = telemetry.Default().Counter("jobs_submitted_total", "campaign jobs accepted by Submit")
	telDone        = telemetry.Default().Counter("jobs_completed_total", "jobs reaching a terminal or resumable state", telemetry.L("state", "done"))
	telFailed      = telemetry.Default().Counter("jobs_completed_total", "jobs reaching a terminal or resumable state", telemetry.L("state", "failed"))
	telInterrupted = telemetry.Default().Counter("jobs_completed_total", "jobs reaching a terminal or resumable state", telemetry.L("state", "interrupted"))
	telRecovered   = telemetry.Default().Counter("jobs_recovered_total", "interrupted jobs re-enqueued by Recover")
	telCheckpoints = telemetry.Default().Counter("jobs_checkpoints_total", "job records written (two per finished job)")
	telRecordFail  = telemetry.Default().Counter("jobs_record_failures_total", "end records that failed to write; the job re-runs as cache hits after a restart")
	telQueueDepth  = telemetry.Default().Gauge("jobs_queue_depth", "jobs waiting for a worker")
	telPending     = telemetry.Default().Gauge("jobs_pending", "jobs queued or running")
	telChunkSec    = telemetry.Default().Histogram("jobs_chunk_seconds", "per-chunk compute latency (cache misses only)", telemetry.SecondsBuckets())
	telChunksCache = telemetry.Default().Counter("jobs_chunks_total", "chunks completed", telemetry.L("source", "cache"))
	telChunksComp  = telemetry.Default().Counter("jobs_chunks_total", "chunks completed", telemetry.L("source", "computed"))
	telRejectFull  = telemetry.Default().Counter("jobs_rejected_total", "submissions rejected by admission control", telemetry.L("reason", "queue_full"))
	telRejectDrain = telemetry.Default().Counter("jobs_rejected_total", "submissions rejected by admission control", telemetry.L("reason", "draining"))
	telPhaseSec    = map[Phase]*telemetry.Histogram{
		PhaseProfile:  telemetry.Default().Histogram("jobs_phase_seconds", "per-job phase wall-clock", telemetry.SecondsBuckets(), telemetry.L("phase", "profile")),
		PhaseGate:     telemetry.Default().Histogram("jobs_phase_seconds", "per-job phase wall-clock", telemetry.SecondsBuckets(), telemetry.L("phase", "gate")),
		PhaseSoftware: telemetry.Default().Histogram("jobs_phase_seconds", "per-job phase wall-clock", telemetry.SecondsBuckets(), telemetry.L("phase", "software")),
	}
)

// Options configures a Scheduler.
type Options struct {
	// Dir holds job records: <id>.json at Submit, <id>.end.json at the end.
	Dir string
	// Store is the content-addressed result cache shared by all jobs.
	Store *store.Store
	// JobWorkers bounds concurrently executing jobs (<=0 selects 2).
	JobWorkers int
	// MaxPending is the admission limit: Submit rejects with ErrQueueFull
	// once this many jobs are queued or running (<=0 = unbounded).
	// Recovery is exempt — interrupted jobs always readmit, because
	// dropping them would lose accepted work.
	MaxPending int
	// Ledger, when non-nil, routes chunk computation through the cluster
	// lease ledger instead of computing in-process (coordinator mode):
	// cache misses are offered to the ledger, leased to remote workers,
	// and awaited; results land in Store under the same content-addressed
	// keys, so artifacts stay byte-identical to a single-node run.
	Ledger *Ledger
}

// Admission errors. The daemon maps both to HTTP 429 + Retry-After:
// the client did nothing wrong, the service is shedding load, and the
// correct client response is identical — back off and resubmit.
var (
	// ErrQueueFull rejects a submission that would exceed MaxPending.
	ErrQueueFull = errors.New("jobs: pending queue full, retry later")
	// ErrDraining rejects submissions to a scheduler that is shutting
	// down; in-flight jobs still run to completion within the grace.
	ErrDraining = errors.New("jobs: scheduler is draining, retry later")
)

// Scheduler runs campaign jobs: deterministic chunking, bounded
// parallelism, dispatch in submission order, content-addressed caching,
// and two record files per job (at submit and at the end).
type Scheduler struct {
	opts  Options
	store *store.Store

	mu      sync.Mutex
	cond    *sync.Cond // signals ready-queue growth and stop transitions
	jobs    map[string]*Job
	order   []string
	ready   []string // queued job IDs, dispatched front first
	seq     int
	closed  bool
	started bool
	stopped bool

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a scheduler over a checkpoint directory and a result cache.
func New(opts Options) (*Scheduler, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("jobs: nil store")
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 2
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	s := &Scheduler{
		opts:  opts,
		store: opts.Store,
		jobs:  make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Start launches the worker pool. Jobs submitted before Start wait in the
// ready queue.
func (s *Scheduler) Start(ctx context.Context) {
	ctx, s.cancel = context.WithCancel(ctx)
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	// Waking cond waiters on context cancellation needs a watcher: a
	// blocked cond.Wait cannot select on ctx.Done.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-ctx.Done()
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	for w := 0; w < s.opts.JobWorkers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				s.mu.Lock()
				for len(s.ready) == 0 && !s.stopped {
					s.cond.Wait()
				}
				if s.stopped {
					s.mu.Unlock()
					return
				}
				id := s.ready[0]
				s.ready = s.ready[1:]
				s.mu.Unlock()
				s.runJob(ctx, id)
			}
		}()
	}
}

// Stop cancels in-flight work at the next chunk boundary and waits for
// the workers to exit. Interrupted jobs keep their job records and re-run
// via Recover on the next start, their finished chunks as cache hits.
func (s *Scheduler) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
}

// Drain stops accepting submissions, then waits up to grace for queued
// and running jobs to finish before stopping. It reports whether the
// queue fully drained.
func (s *Scheduler) Drain(grace time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	deadline := time.Now().Add(grace) //vetsim:ignore determinism shutdown grace-period deadline; never enters artifacts or cache keys
	drained := false
	for time.Now().Before(deadline) { //vetsim:ignore determinism shutdown grace-period poll; never enters artifacts or cache keys
		if s.Pending() == 0 {
			drained = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.Stop()
	return drained
}

// Started reports whether the worker pool has been launched. Readiness
// probes (GET /readyz) use it: a daemon that accepted a job before Start
// would queue it indefinitely.
func (s *Scheduler) Started() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started
}

// Draining reports whether the scheduler has stopped admitting work
// (Drain was called). Readiness probes fail during a drain so load
// balancers steer new traffic away while in-flight streams finish.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Pending counts jobs that are queued or running.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked()
}

// pendingLocked is the admission-control load measure: jobs holding or
// waiting for a worker. Caller holds s.mu.
func (s *Scheduler) pendingLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			n++
		}
	}
	return n
}

// MetricsView is everything the daemon's /metrics endpoint reports
// about the scheduler and its cache.
type MetricsView struct {
	Jobs       int
	QueueDepth int
	Pending    int
	PhaseSec   map[Phase]float64
	Cache      store.Stats
}

// MetricsSnapshot gathers the whole metrics view in one pass: a single
// lock acquisition over the job table plus one cache Stats() call, so
// the numbers a scrape reports are internally consistent mid-campaign
// (the field-by-field Jobs/Pending/PhaseTimings calls each
// reacquire the mutex and interleave with job transitions). It also
// refreshes the queue-depth and pending gauges in the registry.
func (s *Scheduler) MetricsSnapshot() MetricsView {
	var v MetricsView
	s.mu.Lock()
	v.Jobs = len(s.jobs)
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			v.QueueDepth++
			v.Pending++
		case StateRunning:
			v.Pending++
		}
	}
	v.PhaseSec = s.phaseSecLocked()
	s.mu.Unlock()
	v.Cache = s.store.Stats()
	telQueueDepth.Set(int64(v.QueueDepth))
	telPending.Set(int64(v.Pending))
	return v
}

// PhaseTimings sums per-phase wall-clock seconds across all jobs.
func (s *Scheduler) PhaseTimings() map[Phase]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phaseSecLocked()
}

// phaseSecLocked sums per-phase wall-clock seconds across all jobs.
// Caller holds s.mu.
func (s *Scheduler) phaseSecLocked() map[Phase]float64 {
	out := map[Phase]float64{PhaseProfile: 0, PhaseGate: 0, PhaseSoftware: 0}
	for _, j := range s.jobs {
		out[PhaseProfile] += j.timing.ProfilingSec
		out[PhaseGate] += j.timing.GateSec
		out[PhaseSoftware] += j.timing.SoftwareSec
	}
	return out
}

// Submit validates the spec, applies admission control, registers a new
// job and enqueues it behind every job already queued. Every admitted
// submission is a distinct job; result reuse happens underneath in the
// content-addressed cache, so resubmitting an identical spec completes
// almost entirely from cache. Rejections (ErrQueueFull past MaxPending,
// ErrDraining during shutdown) happen before any state is created, and a
// job whose record cannot be written is withdrawn: a rejected or failed
// submission leaves no job, no record and no queue entry.
func (s *Scheduler) Submit(spec Spec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	spec = spec.WithDefaults()
	digest, err := spec.Digest()
	if err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		telRejectDrain.Inc()
		return Status{}, ErrDraining
	}
	if s.opts.MaxPending > 0 && s.pendingLocked() >= s.opts.MaxPending {
		s.mu.Unlock()
		telRejectFull.Inc()
		return Status{}, ErrQueueFull
	}
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%06d-%s", s.seq, digest[:8]),
		Spec:    spec,
		Digest:  digest,
		state:   StateQueued,
		chunks:  chunkStates(spec),
		created: time.Now().UTC(), //vetsim:ignore determinism status-only submission timestamp; never enters artifacts or cache keys
	}
	// Registered before its record is written, so admission stays atomic.
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	st := j.statusLocked()
	rec, err := j.recordLocked(StateQueued, "")
	s.mu.Unlock()

	if err == nil {
		err = publishRecord(s.opts.Dir, j.ID+".json", rec)
	}
	s.mu.Lock()
	if err != nil {
		delete(s.jobs, j.ID)
		s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == j.ID })
		s.mu.Unlock()
		return Status{}, err
	}
	s.ready = append(s.ready, j.ID)
	s.mu.Unlock()
	telSubmitted.Inc()
	s.cond.Signal()
	return st, nil
}

// chunkStates is a job's chunk list before any chunk has run.
func chunkStates(spec Spec) (out []ChunkState) {
	for _, c := range Chunks(spec) {
		out = append(out, ChunkState{Chunk: c})
	}
	return out
}

// Recover loads every job record under Dir, restores finished jobs and
// re-enqueues unfinished ones with a fresh chunk list. Chunks finished
// before the restart are in the store and come back as cache hits, so a
// recovered job only recomputes what it never finished. It returns the
// number of jobs re-enqueued.
func (s *Scheduler) Recover() (int, []error) {
	cps, errs := loadCheckpoints(s.opts.Dir)
	requeued := 0
	for _, cp := range cps {
		j := &Job{
			ID: cp.ID, Spec: cp.Spec.WithDefaults(), Digest: cp.Digest,
			state: cp.State, err: cp.Err, created: cp.Created, chunks: cp.Chunks,
		}
		if j.state == StateDone {
			// Reassemble artifacts from cached payloads. If the cache lost
			// one, the job is unfinished again: its end record goes.
			var err error
			if j.artifacts, err = s.restoreArtifacts(j); err != nil {
				os.Remove(filepath.Join(s.opts.Dir, j.ID+endSuffix))
				j.state = StateQueued
			}
		}
		// Re-admission bypasses MaxPending: these jobs were admitted
		// before the restart, and dropping them would lose accepted work.
		requeue := j.state == StateQueued || j.state == StateRunning
		if requeue {
			j.state, j.err, j.chunks = StateQueued, "", chunkStates(j.Spec)
		}

		s.mu.Lock()
		if _, dup := s.jobs[j.ID]; dup {
			s.mu.Unlock()
			continue
		}
		// A sequence collision would mint duplicate job IDs after restart.
		var seq int
		if _, err := fmt.Sscanf(cp.ID, "j%06d-", &seq); err == nil && seq > s.seq {
			s.seq = seq
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if requeue {
			s.ready = append(s.ready, j.ID)
		}
		s.mu.Unlock()
		if requeue {
			s.cond.Signal()
			requeued++
			telRecovered.Inc()
		}
	}
	return requeued, errs
}

// restoreArtifacts rebuilds a recovered finished job's artifacts from the
// cache, before the job is registered: every chunk of Chunks(spec) must
// be done and still in the store.
func (s *Scheduler) restoreArtifacts(j *Job) (map[string][]byte, error) {
	var out jobOutput
	for _, c := range Chunks(j.Spec) {
		st := j.chunk(c.ID)
		if st == nil || !st.Done || st.CacheKey == "" {
			return nil, fmt.Errorf("jobs: %s: chunk %s not done", j.ID, c.ID)
		}
		b, ok := s.store.Get(st.CacheKey)
		if !ok {
			return nil, fmt.Errorf("jobs: %s: chunk %s evicted from cache", j.ID, c.ID)
		}
		if err := out.absorb(c, b); err != nil {
			return nil, err
		}
	}
	return out.artifacts(j.Spec)
}

// Job returns a job's status.
func (s *Scheduler) Job(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.statusLocked(), true
}

// Jobs lists all jobs in submission order.
func (s *Scheduler) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].statusLocked())
	}
	return out
}

// Artifact returns one output artifact of a finished job.
func (s *Scheduler) Artifact(id, name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.artifacts == nil {
		return nil, false
	}
	b, ok := j.artifacts[name]
	return b, ok
}

// Subscribe attaches a progress listener to a job. The returned channel
// receives snapshots until the job finishes, then closes; the bool
// reports whether the job exists. The current snapshot is returned
// immediately so late subscribers see state without waiting for an event.
func (s *Scheduler) Subscribe(id string) (<-chan report.ProgressSnapshot, report.ProgressSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, report.ProgressSnapshot{}, false
	}
	snap := j.snapshotLocked("", "")
	ch := make(chan report.ProgressSnapshot, 64)
	if j.state == StateDone || j.state == StateFailed {
		close(ch)
		return ch, snap, true
	}
	j.subs = append(j.subs, ch)
	return ch, snap, true
}

// --- execution ------------------------------------------------------------

func (s *Scheduler) runJob(ctx context.Context, id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || (j.state != StateQueued && j.state != StateRunning) {
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now() //vetsim:ignore determinism status-only start timestamp; never enters artifacts or cache keys
	j.emitLocked(j.snapshotLocked("", ""))
	s.mu.Unlock()

	err := s.executeJob(ctx, j)

	state, msg, tel := StateDone, "", telDone
	switch {
	case err != nil && ctx.Err() != nil:
		// Shutdown, not failure: leave the job resumable. Its job record
		// says queued, and the chunks it finished are in the store.
		state, tel = StateQueued, telInterrupted
	case err != nil:
		state, msg, tel = StateFailed, err.Error(), telFailed
	}
	if state != StateQueued {
		// The end record is on disk before the terminal state is visible.
		s.mu.Lock()
		rec, err := j.recordLocked(state, msg)
		s.mu.Unlock()
		if err == nil {
			err = publishRecord(s.opts.Dir, j.ID+endSuffix, rec)
		}
		if err != nil {
			telRecordFail.Inc()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.state, j.err = state, msg
	j.finished = time.Now() //vetsim:ignore determinism status-only finish timestamp; never enters artifacts or cache keys
	tel.Inc()
	j.emitLocked(j.snapshotLocked("", ""))
	if state != StateQueued {
		j.closeSubsLocked()
	}
}

// phaseWidth is how many of a phase's n chunks run at once; no width
// changes a byte. A single node computes GOMAXPROCS chunks at a time (0
// selects it). A coordinator offers all n at once: its own CPU count
// says nothing about the remote fleet that computes them.
func (s *Scheduler) phaseWidth(n int) int {
	if s.opts.Ledger != nil {
		return n
	}
	return 0
}

// phases are a job's phases in run order: each needs only the outputs of
// the ones before it.
var phases = [...]Phase{PhaseProfile, PhaseGate, PhaseSoftware}

// executeJob runs the chunks of Chunks(spec) phase by phase, each phase's
// chunks at once. Chunk results come from the content-addressed cache when
// available; a computed chunk counts as done only once it is in the store,
// where a re-run after a kill finds it.
func (s *Scheduler) executeJob(ctx context.Context, j *Job) error {
	spec := j.Spec
	// The job ID doubles as the distributed trace ID: remote workers tag
	// their spans with it and they stitch back under this root.
	root := telemetry.StartTrace("job:"+j.ID, j.ID)
	defer root.End()

	all := Chunks(spec)
	var out jobOutput
	for _, phase := range phases {
		tm := telemetry.StartTimer(telPhaseSec[phase])
		chunks := slices.DeleteFunc(slices.Clone(all), func(c Chunk) bool { return c.Phase != phase })
		// Gate chunks carry the profile's patterns; their keys cover them.
		var patterns []units.Pattern
		var patternsDigest string
		if phase == PhaseGate {
			patterns = out.prof.Patterns
			patternsDigest = artifact.PatternsDigest(patterns)
		}
		type result struct {
			b   []byte
			err error
		}
		res, err := campaign.ParallelMapCtx(ctx, chunks, s.phaseWidth(len(chunks)),
			func(c Chunk) result {
				sp := root.Child(c.ID)
				defer sp.End()
				key, err := chunkKey(spec, c, patternsDigest)
				if err != nil {
					return result{err: err}
				}
				b, err := s.ensureChunk(ctx, j, ChunkRequest{
					Job: j.ID, Chunk: c, Spec: spec, Key: key, Patterns: patterns,
				}, sp)
				return result{b, err}
			})
		if err != nil {
			return err
		}
		for i, r := range res {
			if r.err != nil {
				return r.err
			}
			if err := out.absorb(chunks[i], r.b); err != nil {
				return err
			}
		}
		sec := tm.Stop()
		s.mu.Lock()
		out.timePhase(&j.timing, phase, sec)
		s.mu.Unlock()
	}

	arts, err := out.artifacts(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.artifacts = arts
	s.mu.Unlock()
	return nil
}

// ensureChunk returns the chunk's payload, from the cache when possible.
// On a miss it either computes in-process with ComputeChunk, exactly as a
// cluster worker would, or, when a ledger is configured, offers the chunk
// for remote execution and waits for a worker to deliver the payload into
// the store. sp is the chunk's span in the job trace (nil when telemetry
// is off); its context travels with remote offers so worker spans
// re-parent under it.
func (s *Scheduler) ensureChunk(ctx context.Context, j *Job, req ChunkRequest, sp *telemetry.Span) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, key := req.Chunk.ID, req.Key
	if b, ok := s.store.Get(key); ok {
		telChunksCache.Inc()
		s.markChunkDone(j, id, key, true)
		return b, nil
	}
	// Miss: either first execution or the entry was evicted.
	s.mu.Lock()
	c := j.chunk(id)
	if c != nil {
		c.CacheKey = key
		j.emitLocked(j.snapshotLocked(id, c.Phase))
	}
	s.mu.Unlock()

	if s.opts.Ledger != nil {
		return s.ensureRemote(ctx, j, req, sp)
	}

	tm := telemetry.StartTimer(telChunkSec)
	b, err := ComputeChunk(req)
	if err != nil {
		return nil, err
	}
	tm.Stop()
	telChunksComp.Inc()
	if err := s.store.Put(key, b); err != nil {
		return nil, err
	}
	s.markChunkDone(j, id, key, false)
	return b, nil
}

// ensureRemote offers the chunk to the lease ledger and waits until a
// worker completes it, then reads the payload back out of the store.
// Cancellation (shutdown/drain past grace) surfaces as ctx.Err, leaving
// the job resumable exactly like an interrupted local chunk.
func (s *Scheduler) ensureRemote(ctx context.Context, j *Job, req ChunkRequest, sp *telemetry.Span) ([]byte, error) {
	tc := sp.Context()
	tc.Chunk = req.Chunk.ID
	s.opts.Ledger.Offer(req, tc)
	wait := sp.Child("remote-wait")
	err := s.opts.Ledger.Wait(ctx, req.Key)
	wait.End()
	if err != nil {
		return nil, err
	}
	b, ok := s.store.Get(req.Key)
	if !ok {
		return nil, fmt.Errorf("jobs: chunk %s completed remotely but key %s is missing from the store", req.Chunk.ID, req.Key)
	}
	telChunksRemote.Inc()
	s.markChunkDone(j, req.Chunk.ID, req.Key, false)
	return b, nil
}

// markChunkDone records completion in memory and emits a progress event.
func (s *Scheduler) markChunkDone(j *Job, id, key string, fromCache bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := j.chunk(id)
	if c == nil {
		return
	}
	c.Done = true
	c.CacheKey = key
	c.FromCache = fromCache
	j.emitLocked(j.snapshotLocked(id, c.Phase))
}
