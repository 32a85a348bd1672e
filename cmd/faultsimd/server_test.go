package main

import (
	"bufio"
	"bytes"
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

const tinySpecJSON = `{"seed":7,"max_patterns":16,"injections":2,` +
	`"apps":["vectoradd"],"profiling":["vectoradd","gemm"]}`

func newTestDaemon(t *testing.T, dir string) (*jobs.Scheduler, *httptest.Server, context.CancelFunc) {
	t.Helper()
	st, err := store.Open(dir+"/cache", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := jobs.New(jobs.Options{
		Dir: dir + "/jobs", Store: st, JobWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sched.Start(ctx)
	srv := httptest.NewServer(newServer(serverDeps{sched: sched, store: st}))
	t.Cleanup(srv.Close)
	t.Cleanup(cancel)
	return sched, srv, cancel
}

func submitJob(t *testing.T, base string, body string) jobs.Status {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJob(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		switch st.State {
		case jobs.StateDone:
			return st
		case jobs.StateFailed:
			t.Fatalf("job %s failed: %s", id, st.Err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobs.Status{}
}

func fetchArtifact(t *testing.T, base, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: status %d", name, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

func fetchMetrics(t *testing.T, base string) metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSubmitAndFetchArtifacts(t *testing.T) {
	_, srv, _ := newTestDaemon(t, t.TempDir())
	st := submitJob(t, srv.URL, tinySpecJSON)
	final := waitDone(t, srv.URL, st.ID)

	if len(final.Artifacts) != 4 {
		t.Fatalf("artifacts = %v", final.Artifacts)
	}
	for _, name := range final.Artifacts {
		if b := fetchArtifact(t, srv.URL, st.ID, name); len(b) == 0 {
			t.Fatalf("artifact %s empty", name)
		}
	}

	// List includes the job; unknown IDs 404.
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobs.Status
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job list = %+v", list)
	}
	resp, err = http.Get(srv.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
}

// TestSubmitRejectsBadSpecs: a spec that is malformed, names something
// unknown, carries a field the job spec no longer has, or asks for a
// campaign past the size ceilings answers 400 naming the problem, and
// leaves no job and no submission count behind. Every Table-1 name is
// accepted, the two CNNs included.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	sched, srv, _ := newTestDaemon(t, t.TempDir())
	const submitted = "jobs_submitted_total"
	before := fetchMetrics(t, srv.URL).Registry.Counters[submitted]
	for _, tc := range []struct{ body, wantErr string }{
		{`{"seed":1,"apps":["no-such-app"]}`, "no-such-app"},
		{`{"seed":1,"bogus_field":3}`, "bogus_field"},
		{`not json`, "bad spec"},
		{`{"seed":1,"engine":"full"}`, `unknown field "engine"`},
		{`{"seed":1,"collapse":true}`, `unknown field "collapse"`},
		{`{"seed":1,"injections":1000000000000}`, "injections 1000000000000 exceeds the limit of 100000"},
		{`{"seed":1,"max_patterns":409601}`, "max_patterns 409601 exceeds the limit of 409600"},
		{`{"seed":1,"injections":-1}`, "negative"},
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(e["error"], tc.wantErr) {
			t.Errorf("body %q: error %q does not mention %q", tc.body, e["error"], tc.wantErr)
		}
	}
	if n := len(sched.Jobs()); n != 0 {
		t.Errorf("rejected submissions created %d job(s)", n)
	}
	if after := fetchMetrics(t, srv.URL).Registry.Counters[submitted]; after != before {
		t.Errorf("%s moved %d -> %d on rejected submissions", submitted, before, after)
	}
	st := submitJob(t, srv.URL, `{"seed":7,"max_patterns":16,"injections":1,`+
		`"apps":["lenet","yolov3"],"profiling":["vectoradd"]}`)
	waitDone(t, srv.URL, st.ID)
}

// TestSubmitRejectsOversizeBodies: POST /jobs answers 413 to a body past
// maxSpecBody before any job exists. The first body is a valid spec behind
// insignificant whitespace, which an unbounded decoder would admit.
func TestSubmitRejectsOversizeBodies(t *testing.T) {
	sched, srv, _ := newTestDaemon(t, t.TempDir())
	pad := strings.Repeat(" ", maxSpecBody)
	for _, tc := range []struct{ name, body string }{
		{"valid spec behind whitespace", pad + tinySpecJSON},
		{"oversize string field", `{"seed":7,"apps":["` + pad + `"]}`},
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", tc.name, resp.StatusCode)
		}
	}
	if n := len(sched.Jobs()); n != 0 {
		t.Errorf("oversize submissions created %d job(s)", n)
	}
}

func TestStreamEmitsNDJSONUntilDone(t *testing.T) {
	_, srv, _ := newTestDaemon(t, t.TempDir())
	st := submitJob(t, srv.URL, tinySpecJSON)

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var last report.ProgressSnapshot
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
	}
	if lines < 2 {
		t.Fatalf("stream produced %d lines, want progress events", lines)
	}
	if last.State != "done" || last.ChunksDone != last.ChunksTotal {
		t.Fatalf("final event %+v", last)
	}
}

func TestMetricsReportCacheEffectiveness(t *testing.T) {
	_, srv, _ := newTestDaemon(t, t.TempDir())

	st1 := submitJob(t, srv.URL, tinySpecJSON)
	waitDone(t, srv.URL, st1.ID)
	m := fetchMetrics(t, srv.URL)
	if m.CachePuts != 5 {
		t.Fatalf("cache puts = %d, want 5", m.CachePuts)
	}

	// Resubmitting the identical spec must be served almost entirely from
	// cache: >= 90% of lookups hit.
	st2 := submitJob(t, srv.URL, tinySpecJSON)
	fin := waitDone(t, srv.URL, st2.ID)
	if fin.CacheHits != len(fin.Chunks) {
		t.Fatalf("resubmission cache hits = %d/%d", fin.CacheHits, len(fin.Chunks))
	}
	m = fetchMetrics(t, srv.URL)
	if m.CacheHitRate < 0.4 { // 5 misses then 5 hits across both jobs
		t.Fatalf("overall hit rate = %v", m.CacheHitRate)
	}
	if m.CachePuts != 5 {
		t.Fatalf("resubmission recomputed chunks: puts = %d", m.CachePuts)
	}
	if m.Jobs != 2 || m.Pending != 0 {
		t.Fatalf("metrics %+v", m)
	}
	for _, ph := range []string{"profile", "gate", "software"} {
		if m.PhaseSec[ph] <= 0 {
			t.Fatalf("phase %s has no recorded time: %+v", ph, m.PhaseSec)
		}
	}
}

// TestKillAndResumeByteIdentical is the subsystem's core guarantee: a
// daemon killed mid-campaign resumes from checkpoints after restart and
// produces artifacts byte-identical to an uninterrupted run, recomputing
// only chunks that never completed.
func TestKillAndResumeByteIdentical(t *testing.T) {
	// Reference run: uninterrupted daemon over its own state directory.
	_, refSrv, _ := newTestDaemon(t, t.TempDir())
	refSt := submitJob(t, refSrv.URL, tinySpecJSON)
	refFinal := waitDone(t, refSrv.URL, refSt.ID)
	reference := map[string][]byte{}
	for _, name := range refFinal.Artifacts {
		reference[name] = fetchArtifact(t, refSrv.URL, refSt.ID, name)
	}

	// Victim run: same spec, but the daemon dies after the first chunk
	// completes. Stop() cancels at a chunk boundary — exactly what a
	// SIGKILL between checkpoints leaves behind.
	dir := t.TempDir()
	sched1, srv1, cancel1 := newTestDaemon(t, dir)
	st := submitJob(t, srv1.URL, tinySpecJSON)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if js := getJob(t, srv1.URL, st.ID); js.State == jobs.StateDone {
			t.Skip("job finished before the kill; machine too fast for this race")
		} else if n := doneChunks(js); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no chunk completed before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel1()
	sched1.Stop()
	srv1.Close()

	interrupted := getJobDirect(t, sched1, st.ID)
	partialDone := doneChunks(interrupted)
	if partialDone == len(interrupted.Chunks) {
		t.Skip("all chunks finished before the kill")
	}

	// Restart over the same directory. Recover must requeue the job.
	sched2, srv2, _ := newTestDaemon(t, dir)
	requeued, errs := sched2.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if requeued != 1 {
		t.Fatalf("requeued = %d, want 1", requeued)
	}
	final := waitDone(t, srv2.URL, st.ID)

	// Chunks finished before the kill must be served from cache now.
	if final.CacheHits < partialDone {
		t.Fatalf("cache hits = %d, want >= %d completed pre-kill", final.CacheHits, partialDone)
	}
	m := fetchMetrics(t, srv2.URL)
	if m.CacheHits == 0 {
		t.Fatal("resume recorded no cache hits")
	}

	// The headline check: byte-identical artifacts.
	if len(final.Artifacts) != len(reference) {
		t.Fatalf("artifact sets differ: %v vs %d reference", final.Artifacts, len(reference))
	}
	for name, want := range reference {
		got := fetchArtifact(t, srv2.URL, st.ID, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact %s differs between resumed and uninterrupted runs\nresumed:  %d bytes\nreference: %d bytes",
				name, len(got), len(want))
		}
	}
}

func doneChunks(st jobs.Status) int {
	n := 0
	for _, c := range st.Chunks {
		if c.Done {
			n++
		}
	}
	return n
}

func getJobDirect(t *testing.T, s *jobs.Scheduler, id string) jobs.Status {
	t.Helper()
	st, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	return st
}

// TestHealthz: both roles answer liveness with 200, the worker even
// before it has reached its coordinator.
func TestHealthz(t *testing.T) {
	_, daemon, _ := newTestDaemon(t, t.TempDir())
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
	worker := httptest.NewServer(newWorkerServer(wk, st))
	defer worker.Close()

	for role, base := range map[string]string{"single": daemon.URL, "worker": worker.URL} {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
			t.Errorf("%s healthz = %d %v, want 200 ok", role, resp.StatusCode, body)
		}
	}
}
