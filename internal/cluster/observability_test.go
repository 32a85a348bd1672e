package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
)

// TestTraceContextNeverEntersGrantDigest is the cache-safety guard for
// trace propagation: offering a chunk with a trace context must not
// change the chunk-request digest or the signed grant digest. The trace
// rides beside the signed material, never inside it — if this test
// fails, observability state has leaked toward cache-key territory.
func TestTraceContextNeverEntersGrantDigest(t *testing.T) {
	req := testReq(t, "sw:vectoradd")
	want, err := jobs.RequestDigest(req)
	if err != nil {
		t.Fatal(err)
	}

	lease := func(traced bool) jobs.Grant {
		led := jobs.NewLedger(jobs.LedgerOptions{TTL: time.Minute})
		if traced {
			led.OfferTraced(req, telemetry.TraceContext{
				Trace: "j000001-test", Origin: "coordinator", Span: 42, Chunk: req.Chunk.ID,
			})
		} else {
			led.Offer(req)
		}
		grants := led.Lease("w1", 1)
		if len(grants) != 1 {
			t.Fatalf("grants = %d", len(grants))
		}
		return grants[0]
	}

	traced, plain := lease(true), lease(false)
	for _, g := range []jobs.Grant{traced, plain} {
		got, err := jobs.RequestDigest(g.Req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("leased request digest %s != offered %s", got, want)
		}
	}
	sign := func(g jobs.Grant) string {
		signed, err := SignGrant(LeaseGrant{Lease: "L000001-fixed", Worker: "w1", TTLSec: 30, Work: g.Req})
		if err != nil {
			t.Fatal(err)
		}
		return signed.Digest
	}
	if a, b := sign(traced), sign(plain); a != b {
		t.Fatalf("grant digest differs with trace context attached: %s != %s", a, b)
	}
}

// spanIndex indexes a recorder snapshot by span ID for parentage walks.
type spanIndex map[uint64]telemetry.SpanRecord

func indexSpans(spans []telemetry.SpanRecord) spanIndex {
	idx := make(spanIndex, len(spans))
	for _, s := range spans {
		idx[s.ID] = s
	}
	return idx
}

// rootOf walks the parent chain to the top, failing on cycles or
// dangling parent references.
func (idx spanIndex) rootOf(t *testing.T, s telemetry.SpanRecord) telemetry.SpanRecord {
	t.Helper()
	for hops := 0; s.Parent != 0; hops++ {
		if hops > 100 {
			t.Fatalf("parent cycle walking up from span %d (%s)", s.ID, s.Name)
		}
		p, ok := idx[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has dangling parent %d", s.ID, s.Name, s.Parent)
		}
		s = p
	}
	return s
}

// TestClusterObservabilityEndToEnd is the fleet-observability acceptance
// test: an in-process coordinator and two workers (each modeling a
// separate process with a private registry and flight recorder) run a
// full campaign. Afterwards the coordinator's recorder must hold ONE
// stitched trace — worker-origin chunk subtrees re-parented under the
// scheduler's job span — /cluster/metrics must aggregate exactly, the
// per-worker completion counts must add up to the chunks computed, and
// the artifacts must still be byte-identical to the single-node
// reference.
func TestClusterObservabilityEndToEnd(t *testing.T) {
	reference := runSingleNode(t, campaignSpec())

	// The scheduler writes job/chunk spans through the process-default
	// recorder; reset it so this test owns its contents.
	rec := telemetry.DefaultRecorder()
	rec.Reset()
	rec.SetOrigin("coordinator")

	dir := t.TempDir()
	coordStore, err := store.Open(dir+"/cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := jobs.NewLedger(jobs.LedgerOptions{TTL: 5 * time.Second})
	sched, err := jobs.New(jobs.Options{
		Dir: dir + "/jobs", Store: coordStore,
		JobWorkers: 1, ChunkWorkers: 3, Ledger: ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorOptions{Ledger: ledger, Store: coordStore})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)
	defer sched.Stop()
	coord.Start(ctx)
	defer coord.Stop()

	var wg sync.WaitGroup
	var workers []*Worker
	for _, name := range []string{"worker-a", "worker-b"} {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerOptions{
			Name: name, Coordinator: srv.URL, Store: st,
			BatchWorkers: 1, MaxLeases: 2, Poll: 10 * time.Millisecond,
			// Private telemetry per worker: separate processes in real
			// deployments, and it keeps the metrics-aggregation assertion
			// honest (nothing shared behind the scenes).
			Registry: telemetry.NewRegistry(),
			Recorder: telemetry.NewFlightRecorder(256),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	defer func() {
		for _, w := range workers {
			w.Stop()
		}
		wg.Wait()
	}()

	status, err := sched.Submit(campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, sched, status.ID)
	for name, want := range reference {
		got, ok := sched.Artifact(status.ID, name)
		if !ok || string(got) != string(want) {
			t.Fatalf("artifact %s missing or differs from single-node reference", name)
		}
	}
	_ = final

	// --- stitched distributed trace -----------------------------------
	workerOrigins := map[string]bool{"worker-a": true, "worker-b": true}
	// The final complete's point span may still be landing when the job
	// flips done, so evaluate the trace under a deadline.
	deadline := time.Now().Add(10 * time.Second)
	var traceErr string
	for {
		spans, _ := rec.Snapshot()
		traceErr = checkStitchedTrace(spans, status.ID, workerOrigins)
		if traceErr == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched trace never converged: %s", traceErr)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Each worker's own recorder holds its chunk subtrees too (the local
	// copy a /debug/trace endpoint would serve).
	sawWorkerCopy := false
	for _, w := range workers {
		spans, _ := w.Recorder().Snapshot()
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "chunk:") && s.Trace == status.ID {
				sawWorkerCopy = true
			}
		}
	}
	if !sawWorkerCopy {
		t.Fatal("no worker recorder kept a local copy of its chunk spans")
	}

	// --- fleet metrics aggregation ------------------------------------
	// Explicit pushes make the test independent of heartbeat cadence.
	for _, w := range workers {
		if err := w.PushMetrics(context.Background()); err != nil {
			t.Fatalf("push metrics: %v", err)
		}
	}
	cm := getClusterMetrics(t, srv.URL)
	if len(cm.Workers) != 2 {
		t.Fatalf("metrics rows = %d, want 2", len(cm.Workers))
	}
	checkMergeArithmetic(t, cm)
	var computed int64
	for _, wm := range cm.Workers {
		if wm.Stale {
			t.Fatalf("worker %s stale right after pushing", wm.Worker)
		}
		computed += wm.Snapshot.Counters["cluster_chunks_computed_total"]
	}
	if computed == 0 {
		t.Fatal("no worker reported computed chunks")
	}
	// The coordinator's own registry may hold computed-chunk counts from
	// other tests sharing the process default; the merge must equal its
	// share plus exactly the workers' sum.
	want := cm.Coordinator.Counters["cluster_chunks_computed_total"] + computed
	if got := cm.Merged.Counters["cluster_chunks_computed_total"]; got != want {
		t.Fatalf("merged computed total = %d, want coordinator+workers = %d", got, want)
	}

	// --- per-worker completion accounting -----------------------------
	// Private stores and renewed leases: every chunk was computed once
	// and accepted once, so the /cluster/workers rows must add up to the
	// workers' own computed counters. The last completion's bookkeeping
	// may still be landing when the job flips done, hence the deadline.
	deadline = time.Now().Add(10 * time.Second)
	for {
		var wr WorkersResponse
		resp, err := srv.Client().Get(srv.URL + "/cluster/workers")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&wr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var completedTotal int64
		for _, w := range wr.Workers {
			completedTotal += w.Completed
		}
		if completedTotal == computed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/cluster/workers completed sums to %d, workers computed %d", completedTotal, computed)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkStitchedTrace validates the coordinator-side trace for one job:
// a single root "job:<id>", worker-origin chunk subtrees whose parent
// chains reach that root, and compute/put children inside them. It
// returns "" when the trace is fully stitched.
func checkStitchedTrace(spans []telemetry.SpanRecord, jobID string, workerOrigins map[string]bool) string {
	idx := indexSpans(spans)
	var root telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == "job:"+jobID {
			root = s
		}
	}
	if root.ID == 0 {
		return fmt.Sprintf("no job root span for %s in %d spans", jobID, len(spans))
	}
	if root.Trace != jobID {
		return fmt.Sprintf("job root carries trace %q, want the job ID", root.Trace)
	}

	chunkRoots := 0
	computeChildren := 0
	putChildren := 0
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "chunk:"):
			if !workerOrigins[s.Origin] {
				return fmt.Sprintf("chunk span %s has origin %q, want a worker", s.Name, s.Origin)
			}
			if s.Parent == 0 {
				return fmt.Sprintf("chunk span %s is unparented (remote parent never resolved)", s.Name)
			}
			top := telemetry.SpanRecord{}
			walk := s
			for walk.Parent != 0 {
				p, ok := idx[walk.Parent]
				if !ok {
					return fmt.Sprintf("chunk span %s: dangling parent %d", s.Name, walk.Parent)
				}
				walk = p
			}
			top = walk
			if top.ID != root.ID {
				return fmt.Sprintf("chunk span %s stitches to root %q, want job:%s", s.Name, top.Name, jobID)
			}
			chunkRoots++
		case s.Name == "compute" || s.Name == "put":
			parent, ok := idx[s.Parent]
			if !ok || !strings.HasPrefix(parent.Name, "chunk:") {
				return fmt.Sprintf("%s span not parented on a chunk span", s.Name)
			}
			if !workerOrigins[s.Origin] {
				return fmt.Sprintf("%s span has origin %q, want a worker", s.Name, s.Origin)
			}
			if s.Name == "compute" {
				computeChildren++
			} else {
				putChildren++
			}
		}
	}
	// Every phase of the campaign ran remotely: profile + gates + sw.
	if chunkRoots < 3 {
		return fmt.Sprintf("only %d worker chunk subtrees stitched in", chunkRoots)
	}
	if computeChildren == 0 || putChildren == 0 {
		return fmt.Sprintf("chunk subtrees incomplete: %d compute, %d put children", computeChildren, putChildren)
	}
	// Coordinator-side hand-off point spans share the same trace.
	for _, name := range []string{"lease:", "complete:"} {
		found := false
		for _, s := range spans {
			if strings.HasPrefix(s.Name, name) && s.Trace == jobID {
				found = true
				break
			}
		}
		if !found {
			return fmt.Sprintf("no %q point span in the job trace", name)
		}
	}
	return ""
}
