package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpufaultsim/internal/cluster"
	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/store"
)

// TestDrainRejectsNewWorkButFinishesInFlight is the graceful-drain
// contract end to end, on a coordinator-role daemon with a live cluster
// worker: once Drain begins, /readyz fails (load balancers steer away)
// and POST /jobs answers 429 with Retry-After, but jobs admitted before
// the drain — including their NDJSON progress streams — run to
// completion, and the lease ledger settles with nothing pending or
// leased.
func TestDrainRejectsNewWorkButFinishesInFlight(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir+"/cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := jobs.NewLedger(jobs.LedgerOptions{TTL: 5 * time.Second})
	sched, err := jobs.New(jobs.Options{
		Dir: dir + "/jobs", Store: st, JobWorkers: 1, Ledger: ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Ledger: ledger, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)
	coord.Start(ctx)
	defer coord.Stop()

	srv := httptest.NewServer(newServer(serverDeps{sched: sched, store: st, coord: coord}))
	defer srv.Close()

	wst, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := cluster.NewWorker(cluster.WorkerOptions{
		Name: "w1", Coordinator: srv.URL, Store: wst,
		MaxLeases: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	wkDone := make(chan struct{})
	go func() { defer close(wkDone); wk.Run(ctx) }()
	defer func() { cancel(); <-wkDone }()

	// Two jobs: with one job worker the second queues behind the first,
	// so the drain has both a running and a queued job to finish.
	stA := submitJob(t, srv.URL, tinySpecJSON)
	stB := submitJob(t, srv.URL, `{"seed":8,"max_patterns":16,"injections":2,`+
		`"apps":["vectoradd"],"profiling":["vectoradd","gemm"]}`)

	// Open job A's NDJSON stream before the drain; it must survive it.
	streamResp, err := http.Get(srv.URL + "/jobs/" + stA.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	streamFinal := make(chan report.ProgressSnapshot, 1)
	go func() {
		var last report.ProgressSnapshot
		sc := bufio.NewScanner(streamResp.Body)
		for sc.Scan() {
			json.Unmarshal(sc.Bytes(), &last)
		}
		streamFinal <- last
	}()

	// Let the first job actually start before draining.
	deadline := time.Now().Add(60 * time.Second)
	for getJob(t, srv.URL, stA.ID).State == jobs.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan bool, 1)
	go func() { drained <- sched.Drain(120 * time.Second) }()
	for !sched.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Mid-drain: not ready, with a reason naming the drain.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status  string            `json:"status"`
		Reasons map[string]string `json:"reasons"`
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz mid-drain = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(ready.Reasons["scheduler"], "draining") {
		t.Fatalf("readyz reasons mid-drain = %v, want a draining scheduler entry", ready.Reasons)
	}

	// Mid-drain: new submissions bounce with 429 + Retry-After, and the
	// rejection leaves no job behind.
	jobsBefore := len(sched.Jobs())
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tinySpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit mid-drain = %d, want 429 (%v)", resp.StatusCode, e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := len(sched.Jobs()); got != jobsBefore {
		t.Fatalf("rejected submission created a job: %d -> %d", jobsBefore, got)
	}

	if ok := <-drained; !ok {
		t.Fatal("drain did not complete within grace")
	}

	// Both pre-drain jobs finished, and the stream saw job A through to
	// its terminal state.
	for _, id := range []string{stA.ID, stB.ID} {
		if got := getJob(t, srv.URL, id); got.State != jobs.StateDone {
			t.Fatalf("job %s = %s after drain, want done (%s)", id, got.State, got.Err)
		}
	}
	final := <-streamFinal
	if final.State != string(jobs.StateDone) || final.ChunksDone != final.ChunksTotal {
		t.Fatalf("stream final snapshot %+v, want completed job", final)
	}

	// The ledger settled: every offered chunk resolved, nothing pending
	// or still leased.
	ls := ledger.Stats()
	if ls.Pending != 0 || ls.Leased != 0 {
		t.Fatalf("ledger not settled after drain: %+v", ls)
	}
	if ls.Done == 0 {
		t.Fatalf("ledger saw no completed chunks: %+v", ls)
	}
}
