package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufaultsim/internal/cluster"
	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
)

func TestHealthzAlwaysOK(t *testing.T) {
	_, srv, _ := newTestDaemon(t, t.TempDir())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

func TestReadyzReflectsSchedulerStart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir+"/cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := jobs.New(jobs.Options{Dir: dir + "/jobs", Store: st, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(serverDeps{sched: sched, store: st}))
	defer srv.Close()

	// Not started yet: not ready, with a reason naming the scheduler.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status  string            `json:"status"`
		Reasons map[string]string `json:"reasons"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Start = %d, want 503", resp.StatusCode)
	}
	if _, ok := body.Reasons["scheduler"]; !ok {
		t.Fatalf("readyz reasons = %v, want scheduler entry", body.Reasons)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)
	defer sched.Stop()

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after Start = %d, want 200", resp.StatusCode)
	}
}

// newTestCluster wires the daemon handler the way -role coordinator does
// — the job API and the cluster lease protocol on one mux, admission
// bounded by maxPending (0 = unbounded) — joins one in-process worker to
// it and returns the coordinator's base URL.
func newTestCluster(t *testing.T, maxPending int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir+"/cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := jobs.NewLedger(jobs.LedgerOptions{TTL: 5 * time.Second})
	sched, err := jobs.New(jobs.Options{
		Dir: dir + "/jobs", Store: st, JobWorkers: 1, ChunkWorkers: 2,
		MaxPending: maxPending, Ledger: ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Ledger: ledger, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sched.Start(ctx)
	t.Cleanup(sched.Stop)
	coord.Start(ctx)
	t.Cleanup(coord.Stop)

	srv := httptest.NewServer(newServer(serverDeps{sched: sched, store: st, coord: coord}))
	t.Cleanup(srv.Close)

	wst, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := cluster.NewWorker(cluster.WorkerOptions{
		Name: "w1", Coordinator: srv.URL, Store: wst,
		BatchWorkers: 1, MaxLeases: 4, Poll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()
	t.Cleanup(func() { wk.Stop(); <-done })
	return srv.URL
}

// TestCoordinatorRoleMountsClusterRoutes: the cluster view is mounted
// alongside the job API, and a worker pointed at it completes a campaign
// end to end.
func TestCoordinatorRoleMountsClusterRoutes(t *testing.T) {
	base := newTestCluster(t, 0)
	resp, err := http.Get(base + "/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/workers = %d, want 200", resp.StatusCode)
	}
	status := submitJob(t, base, tinySpecJSON)
	waitJobState(t, base, status.ID, "done", 120*time.Second)
}

// TestBurstAdmissionOnCluster fires many more concurrent submissions than
// the admission limit lets in at a coordinator + worker. The overflow must
// be pushed back with 429 + Retry-After and nothing else, the client's
// rejection count must equal the coordinator's own counter, every
// admitted job must finish, and a campaign submitted afterwards must
// produce the artifacts of an unloaded single-node daemon, byte for byte.
func TestBurstAdmissionOnCluster(t *testing.T) {
	const maxPending, fired = 6, 40
	const queueFull = `jobs_rejected_total{reason="queue_full"}`
	specs := []string{
		tinySpecJSON,
		`{"max_patterns":4,"injections":1,"apps":["vectoradd"],"profiling":["vectoradd"]}`,
		`{"max_patterns":8,"injections":1,"apps":["vectoradd"],"profiling":["vectoradd"]}`,
	}
	classes := []jobs.SLOClass{jobs.ClassInteractive, jobs.ClassBatch, jobs.ClassBackground}

	base := newTestCluster(t, maxPending)
	rejectedBefore := fetchMetrics(t, base).Registry.Counters[queueFull]

	type outcome struct {
		code       int
		retryAfter string
		id         string
		err        error
	}
	outcomes := make([]outcome, fired)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outcomes[i]
			<-start
			url := base + "/jobs?class=" + string(classes[i%len(classes)])
			resp, err := http.Post(url, "application/json", strings.NewReader(specs[i/len(classes)%len(specs)]))
			if err != nil {
				o.err = err
				return
			}
			defer resp.Body.Close()
			o.code, o.retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
			if o.code == http.StatusAccepted {
				var st jobs.Status
				o.err = json.NewDecoder(resp.Body).Decode(&st)
				o.id = st.ID
			}
		}(i)
	}
	close(start)
	wg.Wait()

	var admitted []string
	rejected := 0
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			t.Errorf("submission %d: %v", i, o.err)
		case o.code == http.StatusAccepted:
			admitted = append(admitted, o.id)
		case o.code == http.StatusTooManyRequests:
			rejected++
			if o.retryAfter == "" {
				t.Errorf("submission %d: 429 without Retry-After", i)
			}
		default:
			t.Errorf("submission %d: status %d, want 202 or 429", i, o.code)
		}
	}
	if len(admitted)+rejected != fired {
		t.Fatalf("admitted %d + rejected %d != %d fired", len(admitted), rejected, fired)
	}
	if len(admitted) < 1 || len(admitted) > maxPending || rejected < 1 {
		t.Fatalf("admitted %d, rejected %d: want 1..%d admitted and the rest pushed back", len(admitted), rejected, maxPending)
	}
	if got := fetchMetrics(t, base).Registry.Counters[queueFull] - rejectedBefore; got != int64(rejected) {
		t.Errorf("coordinator counted %d queue-full rejections, clients saw %d", got, rejected)
	}
	for _, id := range admitted {
		waitDone(t, base, id)
	}

	// The queue has drained, so this one is admitted.
	loaded := submitJob(t, base, tinySpecJSON)
	waitDone(t, base, loaded.ID)
	_, single, _ := newTestDaemon(t, t.TempDir())
	ref := submitJob(t, single.URL, tinySpecJSON)
	refFinal := waitDone(t, single.URL, ref.ID)
	if len(refFinal.Artifacts) != 4 {
		t.Fatalf("reference artifacts = %v", refFinal.Artifacts)
	}
	for _, name := range refFinal.Artifacts {
		want := fetchArtifact(t, single.URL, ref.ID, name)
		if got := fetchArtifact(t, base, loaded.ID, name); !bytes.Equal(got, want) {
			t.Errorf("artifact %s differs between the loaded cluster and an unloaded single-node daemon", name)
		}
	}
}

func TestWorkerServerReadiness(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := cluster.NewWorker(cluster.WorkerOptions{
		Name: "w1", Coordinator: "http://127.0.0.1:0", Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newWorkerServer(wk, st))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker healthz = %d, want 200", resp.StatusCode)
	}
	// Never exchanged a lease with the coordinator: not ready.
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("worker readyz unjoined = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker metrics = %d, want 200", resp.StatusCode)
	}
}

// waitJobState polls the HTTP job API until the job reaches want.
func waitJobState(t *testing.T, base, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if string(st.State) == want {
			return
		}
		if st.State == jobs.StateFailed && want != "failed" {
			t.Fatalf("job %s failed: %s", id, st.Err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}
