// Package cluster turns faultsimd into a coordinator/worker fleet. The
// coordinator owns job admission and the chunk lease ledger; workers
// join over plain HTTP, lease chunks, compute them with the existing
// executor, and push payloads back under the same content-addressed keys
// — so cross-node deduplication works exactly like intra-node, and final
// artifacts stay byte-identical to a single-node run at any worker
// count. Liveness is heartbeat-driven: a lease that outlives its TTL
// without renewal is expired back to the pending queue and reassigned,
// so worker death costs only the in-flight leases. The coordinator holds
// no cluster state that its job records cannot rebuild: a restarted
// coordinator recovers every unfinished job and re-offers exactly the
// chunks whose results the store does not already hold.
//
// Protocol (all JSON over the daemon's HTTP surface):
//
//	POST /cluster/lease      LeaseRequest  -> LeaseResponse
//	POST /cluster/complete   CompleteRequest -> CompleteResponse
//	POST /cluster/heartbeat  HeartbeatRequest -> HeartbeatResponse
//	GET  /cluster/workers    -> WorkersResponse
//
// A grant carries every input of its chunk (a gate chunk's patterns
// included), so a worker never fetches a payload from the coordinator.
//
// Tracing rides the same wire types: lease responses carry the
// scheduler's per-chunk trace contexts (beside the signed grants, never
// inside them), and completions push the worker's span subtree for
// stitching. Neither enters grant digests or cache keys. Metrics stay
// with the process that counts them: every role serves its own registry
// on its own GET /metrics.
package cluster

//vetsim:deterministic

import (
	"fmt"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/telemetry"
)

// protocolSchema versions the wire protocol. It enters every grant
// digest, so a coordinator and worker speaking different protocol
// versions refuse each other's grants instead of miscomputing.
// Schema history: 1 = PR 7 lease protocol; 2 = observability fields
// (trace contexts on leases, span push on complete, metrics on
// heartbeat). The workers view lost its throughput block without a bump:
// only operators read that view, no worker does. Heartbeats lost their
// metrics snapshot without a bump too: the coordinator's decoder ignores
// the fields an older worker still sends. 3 = gate requests carry the
// profile's patterns instead of naming the profile payload, and
// GET /cluster/chunks/{key} is gone.
const protocolSchema = 3

// LeaseRequest asks the coordinator for up to Max chunk leases.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// LeaseGrant hands one chunk to a worker: the lease identity, its TTL,
// the self-contained chunk request, and a digest over all of it. The
// worker recomputes the digest before executing; a mismatch means
// coordinator/worker protocol skew and the grant is refused.
type LeaseGrant struct {
	Lease  string            `json:"lease"`
	Worker string            `json:"worker"`
	TTLSec float64           `json:"ttl_sec"`
	Work   jobs.ChunkRequest `json:"work"`
	Digest string            `json:"digest"`
}

// LeaseResponse carries zero or more grants; empty means no pending
// chunks right now and the worker should poll again. Traces maps lease
// ID → the scheduler's span context for that chunk. It travels beside
// the signed grants — adding it to LeaseGrant would pull observability
// state into grantKey and, transitively, toward cache-key territory
// (the vetsim cachekey analyzer would flag exactly that).
type LeaseResponse struct {
	Grants []LeaseGrant                      `json:"grants"`
	Traces map[string]telemetry.TraceContext `json:"traces,omitempty"`
}

// CompleteRequest pushes one computed payload back. Key must match the
// granted chunk's content-addressed key; Error reports a failed
// computation instead of a payload. Spans is the worker's completed
// span subtree for the chunk (root + compute/put children), ingested by
// the coordinator's flight recorder so the distributed trace stitches.
type CompleteRequest struct {
	Worker  string                 `json:"worker"`
	Lease   string                 `json:"lease"`
	Key     string                 `json:"key"`
	Payload []byte                 `json:"payload,omitempty"`
	Error   string                 `json:"error,omitempty"`
	Spans   []telemetry.SpanRecord `json:"spans,omitempty"`
}

// CompleteResponse reports the ledger outcome: "ok", "late" (the chunk
// was already done — reassigned or deduplicated) or "unknown".
type CompleteResponse struct {
	Status string `json:"status"`
}

// HeartbeatRequest renews the worker's active leases.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Leases []string `json:"leases,omitempty"`
}

// HeartbeatResponse lists the leases that could not be renewed (expired
// and reassigned, or completed elsewhere) so the worker can abandon them.
type HeartbeatResponse struct {
	Renewed int      `json:"renewed"`
	Lost    []string `json:"lost,omitempty"`
}

// WorkerInfo is one row of the GET /cluster/workers view.
type WorkerInfo struct {
	Name         string   `json:"name"`
	LastSeenSec  float64  `json:"last_seen_sec"`
	Live         bool     `json:"live"`
	ActiveLeases []string `json:"active_leases,omitempty"`
	Granted      int64    `json:"granted"`
	Completed    int64    `json:"completed"`
	Failed       int64    `json:"failed"`
}

// WorkersResponse is the cluster membership + ledger view.
type WorkersResponse struct {
	Workers []WorkerInfo     `json:"workers"`
	Ledger  jobs.LedgerStats `json:"ledger"`
}

// grantKeyMaterial is the digested content of a lease grant.
type grantKeyMaterial struct {
	Schema     int     `json:"schema"`
	Lease      string  `json:"lease"`
	Worker     string  `json:"worker"`
	TTLSec     float64 `json:"ttl_sec"`
	WorkDigest string  `json:"work_digest"`
}

// grantKey digests a grant's semantic content: lease identity, TTL and
// the full chunk request (via jobs.RequestDigest), all under
// protocolSchema.
func grantKey(g LeaseGrant) (string, error) {
	wd, err := jobs.RequestDigest(g.Work)
	if err != nil {
		return "", err
	}
	return artifact.Digest(grantKeyMaterial{
		Schema: protocolSchema,
		Lease:  g.Lease, Worker: g.Worker, TTLSec: g.TTLSec,
		WorkDigest: wd,
	})
}

// SignGrant stamps the grant with its digest (coordinator side).
func SignGrant(g LeaseGrant) (LeaseGrant, error) {
	d, err := grantKey(g)
	if err != nil {
		return g, err
	}
	g.Digest = d
	return g, nil
}

// VerifyGrant recomputes the grant digest (worker side). A mismatch
// means the two binaries disagree about protocol or chunk-request
// semantics — refuse the work rather than cache a wrong payload.
//
//vetsim:cachekey-surface
func VerifyGrant(g LeaseGrant) error {
	want, err := grantKey(g)
	if err != nil {
		return err
	}
	if g.Digest != want {
		return fmt.Errorf("cluster: grant %s digest mismatch (coordinator/worker protocol skew?)", g.Lease)
	}
	return nil
}
