package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
)

// campaignSpec keeps the multi-node campaign fast while exercising every
// phase: profiling, three gate chunks, one software chunk.
func campaignSpec() jobs.Spec {
	return jobs.Spec{
		Seed:        7,
		MaxPatterns: 16,
		Injections:  2,
		Apps:        []string{"vectoradd"},
		Profiling:   []string{"vectoradd", "gemm"},
	}
}

// runSingleNode executes the spec on a plain local scheduler and returns
// its artifacts by name — the byte-identity reference for cluster runs.
func runSingleNode(t *testing.T, spec jobs.Spec) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir+"/cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jobs.New(jobs.Options{Dir: dir + "/jobs", Store: st, JobWorkers: 1, ChunkWorkers: 1, BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()
	status, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, status.ID)
	out := make(map[string][]byte)
	for _, name := range final.Artifacts {
		b, ok := s.Artifact(status.ID, name)
		if !ok {
			t.Fatalf("reference artifact %s missing", name)
		}
		out[name] = b
	}
	if len(out) == 0 {
		t.Fatal("reference run produced no artifacts")
	}
	return out
}

func waitJob(t *testing.T, s *jobs.Scheduler, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case jobs.StateDone:
			return st
		case jobs.StateFailed:
			t.Fatalf("job %s failed: %s", id, st.Err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s stuck in %s", id, st.State)
	return jobs.Status{}
}

// newClusterWorker builds a worker with its own private store directory
// and the default batch width, so the byte-identity checks below hold for
// a worker started with faultsimd's defaults.
func newClusterWorker(t *testing.T, name, url string, hook func(ctx context.Context, req jobs.ChunkRequest)) *Worker {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{
		Name: name, Coordinator: url, Store: st,
		MaxLeases: 2, Poll: 10 * time.Millisecond,
		BeforeCompute: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestClusterKillWorkerMidCampaign is the multi-node acceptance test: a
// coordinator scheduler routes chunks through the lease ledger, worker A
// computes the profiling chunk and then wedges on its first gate chunk
// and is stopped — a worker death while holding a lease. Worker B joins,
// the coordinator expires A's lease past its TTL and reassigns the chunk,
// and the campaign completes with artifacts byte-identical to the
// single-node serial reference run.
func TestClusterKillWorkerMidCampaign(t *testing.T) {
	reference := runSingleNode(t, campaignSpec())

	dir := t.TempDir()
	coordStore, err := store.Open(dir+"/cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := jobs.NewLedger(jobs.LedgerOptions{TTL: 250 * time.Millisecond})
	sched, err := jobs.New(jobs.Options{
		Dir: dir + "/jobs", Store: coordStore,
		JobWorkers: 1, ChunkWorkers: 3, Ledger: ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorOptions{Ledger: ledger, Store: coordStore, SweepEvery: 20 * time.Millisecond})
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

	// Worker A: computes the profile chunk normally, then wedges forever
	// on its first gate chunk (still holding the lease) until stopped.
	wedged := make(chan string, 1)
	var once sync.Once
	workerA := newClusterWorker(t, "worker-a", srv.URL, func(hctx context.Context, req jobs.ChunkRequest) {
		if req.Chunk.Phase != jobs.PhaseGate {
			return
		}
		once.Do(func() { wedged <- req.Chunk.ID })
		<-hctx.Done()
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); workerA.Run(ctx) }()

	status, err := sched.Submit(campaignSpec())
	if err != nil {
		t.Fatal(err)
	}

	var wedgedChunk string
	select {
	case wedgedChunk = <-wedged:
	case <-time.After(60 * time.Second):
		t.Fatal("worker A never reached a gate chunk")
	}

	// Kill A mid-lease: Run's context unwinds, heartbeats cease, and the
	// wedged chunk's completion never arrives.
	workerA.Stop()
	wg.Wait()

	// Worker B joins and must finish everything, including the chunk A
	// died holding, pulling A's profile payload over the remote
	// read-through path (B's local store has never seen it).
	workerB := newClusterWorker(t, "worker-b", srv.URL, nil)
	wg.Add(1)
	go func() { defer wg.Done(); workerB.Run(ctx) }()
	defer func() { workerB.Stop(); wg.Wait() }()

	final := waitJob(t, sched, status.ID)

	if got := ledger.Reassignments(); got == 0 {
		t.Fatalf("reassignments = 0, want > 0 (chunk %s was abandoned mid-lease)", wedgedChunk)
	}
	if len(final.Artifacts) != len(reference) {
		t.Fatalf("artifact count = %d, want %d", len(final.Artifacts), len(reference))
	}
	for name, want := range reference {
		got, ok := sched.Artifact(status.ID, name)
		if !ok {
			t.Fatalf("cluster artifact %s missing", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact %s differs from single-node reference (%d vs %d bytes)", name, len(got), len(want))
		}
	}

	// The ledger settled: nothing pending or leased, no failures.
	st := ledger.Stats()
	if st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("ledger not settled: %+v", st)
	}
}

// TestClusterTwoWorkersShareCampaign runs the healthy path: two live
// workers split the chunks and the artifacts still match the reference.
func TestClusterTwoWorkersShareCampaign(t *testing.T) {
	reference := runSingleNode(t, campaignSpec())

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
		w := newClusterWorker(t, name, srv.URL, nil)
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
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("artifact %s missing or differs from reference", name)
		}
	}
	if len(final.Artifacts) != len(reference) {
		t.Fatalf("artifact count = %d, want %d", len(final.Artifacts), len(reference))
	}
}
