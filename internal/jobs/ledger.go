package jobs

//vetsim:instrumented

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
)

// Ledger metrics: the lease lifecycle as seen by the coordinator.
// cluster_leases_expired_total is the reassignment counter — every
// expiry returns a chunk to the pending queue for another worker.
var (
	telLeaseGranted = telemetry.Default().Counter("cluster_leases_granted_total", "chunk leases granted to workers")
	telLeaseDone    = telemetry.Default().Counter("cluster_leases_completed_total", "chunk leases completed by workers")
	telLeaseExpired = telemetry.Default().Counter("cluster_leases_expired_total", "leases expired past their TTL and chunks reassigned")
	telLeaseFailed  = telemetry.Default().Counter("cluster_leases_failed_total", "chunk executions reported failed by workers")
	telLeaseAge     = telemetry.Default().Histogram("cluster_lease_age_seconds", "lease age at completion", telemetry.SecondsBuckets())
	telChunksRemote = telemetry.Default().Counter("jobs_chunks_total", "chunks completed", telemetry.L("source", "remote"))
)

// ChunkRequest is a self-contained description of one chunk to execute:
// everything a remote worker needs to recompute the chunk's payload and
// store it under the same content-addressed key the coordinator derived.
// A gate chunk's input, the profile's exciting patterns, rides in
// Patterns (nil for the other phases).
type ChunkRequest struct {
	Job      string          `json:"job"`
	Chunk    Chunk           `json:"chunk"`
	Spec     Spec            `json:"spec"`
	Key      string          `json:"key"`
	Patterns []units.Pattern `json:"patterns,omitempty"`
}

// requestKeyMaterial fingerprints a chunk request for wire integrity
// checks between coordinator and worker binaries.
type requestKeyMaterial struct {
	Schema         int    `json:"schema"`
	Job            string `json:"job"`
	ChunkID        string `json:"chunk_id"`
	Phase          string `json:"phase"`
	Arg            string `json:"arg"`
	SpecDigest     string `json:"spec_digest"`
	Key            string `json:"key"`
	PatternsDigest string `json:"patterns_digest"`
}

// RequestDigest fingerprints every field of a chunk request. The cluster
// protocol embeds it in signed lease grants, so a coordinator and a
// worker that disagree about request semantics (version skew) fail fast
// with a digest mismatch instead of silently caching wrong payloads.
func RequestDigest(r ChunkRequest) (string, error) {
	sd, err := r.Spec.Digest()
	if err != nil {
		return "", err
	}
	return artifact.Digest(requestKeyMaterial{
		Schema: chunkSchema, Job: r.Job,
		ChunkID: r.Chunk.ID, Phase: string(r.Chunk.Phase), Arg: r.Chunk.Arg,
		SpecDigest: sd, Key: r.Key, PatternsDigest: artifact.PatternsDigest(r.Patterns),
	})
}

// LeaseState is one ledger entry's position in the lease state machine:
//
//	pending --Lease--> leased --Complete--> done
//	   ^                  |        \--Complete(err)--> failed --Offer--> pending
//	   \----Expire--------/
type LeaseState string

const (
	LeasePending LeaseState = "pending"
	LeaseActive  LeaseState = "leased"
	LeaseDone    LeaseState = "done"
	LeaseFailed  LeaseState = "failed"
)

// CompleteOutcome reports what a completion did to the ledger.
type CompleteOutcome string

const (
	// CompleteOK: the lease was active and the chunk is now done.
	CompleteOK CompleteOutcome = "ok"
	// CompleteLate: the chunk was already done (the lease expired and the
	// chunk was reassigned, or another worker pushed the same key first).
	// Content-addressed payloads make late duplicates harmless.
	CompleteLate CompleteOutcome = "late"
	// CompleteUnknown: the key was never offered; the payload is rejected.
	CompleteUnknown CompleteOutcome = "unknown"
)

// Grant is one leased chunk: the lease identity plus the request.
// Trace is the scheduler's span context for the chunk, carried beside
// the request — never inside it — so distributed tracing cannot perturb
// RequestDigest or the content-addressed cache keys.
type Grant struct {
	Lease string                 `json:"lease"`
	Req   ChunkRequest           `json:"req"`
	Trace telemetry.TraceContext `json:"trace,omitempty"`
}

// LedgerStats is a point-in-time view of the ledger.
type LedgerStats struct {
	Pending    int   `json:"pending"`
	Leased     int   `json:"leased"`
	Done       int   `json:"done"`
	Failed     int   `json:"failed"`
	Reassigned int64 `json:"reassigned"`
}

type ledgerEntry struct {
	req      ChunkRequest
	trace    telemetry.TraceContext // scheduler chunk span; observability only
	state    LeaseState
	worker   string
	lease    string
	granted  time.Time
	expiry   time.Time
	attempts int
	errMsg   string
	done     chan struct{} // closed on done or failed
}

// LedgerOptions configures a Ledger.
type LedgerOptions struct {
	// TTL is how long a lease stays valid without a heartbeat
	// (<=0 selects 30s).
	TTL time.Duration
	// Now overrides the clock (tests). Lease expiry is liveness
	// bookkeeping only; it never enters artifacts or cache keys.
	Now func() time.Time
}

// Ledger is the chunk lease state machine at the heart of the
// coordinator: the scheduler offers chunks, workers lease them, compute
// the payloads, and complete them; leases that outlive their TTL without
// a heartbeat are expired back to pending and reassigned, so a dead
// worker costs exactly its in-flight leases. Entries are keyed by the
// chunk's content-addressed cache key, so two jobs offering the same
// chunk share one entry and one computation.
type Ledger struct {
	ttl time.Duration
	now func() time.Time

	mu         sync.Mutex
	entries    map[string]*ledgerEntry // by ChunkRequest.Key
	order      []string                // offer order; grants follow it
	seq        int
	reassigned int64
}

// NewLedger builds an empty ledger. The ledger holds no durable state of
// its own: it is reconstructed from scheduler job records after a
// coordinator restart (Recover re-runs each unfinished job, which
// re-offers exactly the chunks whose results are not already in the
// store).
func NewLedger(opts LedgerOptions) *Ledger {
	if opts.TTL <= 0 {
		opts.TTL = 30 * time.Second
	}
	if opts.Now == nil {
		opts.Now = func() time.Time { return time.Now() } //vetsim:ignore determinism lease TTLs are liveness bookkeeping; never enters artifacts or cache keys
	}
	return &Ledger{
		ttl:     opts.TTL,
		now:     opts.Now,
		entries: make(map[string]*ledgerEntry),
	}
}

// TTL returns the lease TTL.
func (l *Ledger) TTL() time.Duration { return l.ttl }

// Offer registers a chunk for remote execution under the offering
// scheduler's span context for it. Offering an existing key is
// idempotent; offering a failed key revives it to pending so a
// resubmitted job retries the chunk. The context rides on grants and
// completion spans so the coordinator and workers stitch into the job's
// trace; it never touches the request, its digest, or the cache key. A
// non-zero context on a re-offer (job resubmitted) replaces the stored
// one.
func (l *Ledger) Offer(req ChunkRequest, tc telemetry.TraceContext) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.entries[req.Key]; ok {
		if !tc.IsZero() {
			e.trace = tc
		}
		if e.state == LeaseFailed {
			e.state = LeasePending
			e.errMsg = ""
			e.done = make(chan struct{})
		}
		return
	}
	l.entries[req.Key] = &ledgerEntry{
		req:   req,
		trace: tc,
		state: LeasePending,
		done:  make(chan struct{}),
	}
	l.order = append(l.order, req.Key)
}

// TraceOf returns the span context stored for key's chunk (zero when
// it was offered without one) and whether the key was ever offered.
// Entries are never removed, so a known key stays known.
func (l *Ledger) TraceOf(key string) (telemetry.TraceContext, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		return telemetry.TraceContext{}, false
	}
	return e.trace, true
}

// Lease grants up to max pending chunks to worker, in offer order, each
// with a fresh lease ID and an expiry of now+TTL.
func (l *Ledger) Lease(worker string, max int) []Grant {
	if max <= 0 {
		max = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	var out []Grant
	for _, key := range l.order {
		if len(out) >= max {
			break
		}
		e := l.entries[key]
		if e.state != LeasePending {
			continue
		}
		l.seq++
		e.state = LeaseActive
		e.worker = worker
		e.lease = fmt.Sprintf("L%06d-%s", l.seq, key[:8])
		e.granted = now
		e.expiry = now.Add(l.ttl)
		e.attempts++
		out = append(out, Grant{Lease: e.lease, Req: e.req, Trace: e.trace})
		telLeaseGranted.Inc()
	}
	return out
}

// Renew extends the expiry of worker's listed leases to now+TTL. Leases
// no longer active under that worker (expired and reassigned, or already
// completed) are returned as lost so the worker can abandon the work.
func (l *Ledger) Renew(worker string, leases []string) (renewed int, lost []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	active := make(map[string]*ledgerEntry)
	for _, e := range l.entries {
		if e.state == LeaseActive && e.worker == worker {
			active[e.lease] = e
		}
	}
	for _, id := range leases {
		if e, ok := active[id]; ok {
			e.expiry = now.Add(l.ttl)
			renewed++
		} else {
			lost = append(lost, id)
		}
	}
	return renewed, lost
}

// Complete marks the chunk under key done (or failed, when errMsg is
// non-empty) and wakes its waiters. Completions for expired or
// reassigned leases are accepted as late: the payload is
// content-addressed, so the duplicate bytes are identical and harmless.
func (l *Ledger) Complete(leaseID, worker, key, errMsg string) CompleteOutcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		return CompleteUnknown
	}
	switch e.state {
	case LeaseDone, LeaseFailed:
		return CompleteLate
	}
	if e.state == LeaseActive {
		telLeaseAge.Observe(l.now().Sub(e.granted).Seconds())
	}
	if errMsg != "" {
		e.state = LeaseFailed
		e.errMsg = fmt.Sprintf("worker %s: %s", worker, errMsg)
		telLeaseFailed.Inc()
	} else {
		e.state = LeaseDone
		// A done entry is never leased again, and entries are never
		// removed: dropping the gate patterns keeps a long-lived
		// coordinator from holding every gate chunk's input for good. A
		// failed entry keeps them for the re-offer that revives it.
		e.req.Patterns = nil
		telLeaseDone.Inc()
	}
	// The completing lease may differ from the active one (a worker whose
	// lease expired can still deliver); record who actually finished it.
	e.worker, e.lease = worker, leaseID
	close(e.done)
	return CompleteOK
}

// Expire sweeps active leases past their expiry back to pending and
// returns how many chunks were reassigned. Called periodically by the
// coordinator; a worker that stops heartbeating loses exactly its
// in-flight leases.
func (l *Ledger) Expire() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	n := 0
	for _, key := range l.order {
		e := l.entries[key]
		if e.state == LeaseActive && now.After(e.expiry) {
			e.state = LeasePending
			e.worker = ""
			e.lease = ""
			n++
			l.reassigned++
			telLeaseExpired.Inc()
		}
	}
	return n
}

// Wait blocks until the chunk under key completes, the chunk fails, or
// ctx is done. The key must have been offered. A failed entry revived by
// a concurrent Offer is waited on again, so Wait only ever returns the
// entry's settled outcome.
func (l *Ledger) Wait(ctx context.Context, key string) error {
	for {
		l.mu.Lock()
		e, ok := l.entries[key]
		if !ok {
			l.mu.Unlock()
			return fmt.Errorf("jobs: ledger has no entry for key %s", key)
		}
		state, errMsg, chunkID, done := e.state, e.errMsg, e.req.Chunk.ID, e.done
		l.mu.Unlock()
		switch state {
		case LeaseDone:
			return nil
		case LeaseFailed:
			return fmt.Errorf("jobs: chunk %s failed remotely: %s", chunkID, errMsg)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-done:
		}
	}
}

// Reassignments counts leases expired back to pending over the ledger's
// lifetime.
func (l *Ledger) Reassignments() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reassigned
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() LedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LedgerStats{Reassigned: l.reassigned}
	for _, e := range l.entries {
		switch e.state {
		case LeasePending:
			st.Pending++
		case LeaseActive:
			st.Leased++
		case LeaseDone:
			st.Done++
		case LeaseFailed:
			st.Failed++
		}
	}
	return st
}

// ActiveLeases lists the lease IDs currently held by worker, in offer
// order (deterministic for tests and the /cluster/workers view).
func (l *Ledger) ActiveLeases(worker string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, key := range l.order {
		e := l.entries[key]
		if e.state == LeaseActive && e.worker == worker {
			out = append(out, e.lease)
		}
	}
	return out
}
