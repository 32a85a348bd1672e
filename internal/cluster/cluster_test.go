package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
)

// testReq builds a minimal valid chunk request whose key is derived from
// id so distinct requests never collide in the ledger or store. The spec
// digest machinery doubles as a convenient source of well-formed hex keys.
func testReq(t *testing.T, id string) jobs.ChunkRequest {
	t.Helper()
	spec := jobs.Spec{Seed: 7, MaxPatterns: 16, Injections: 2,
		Apps: []string{"vectoradd"}, Profiling: []string{"vectoradd"}}
	var seed int64
	for _, c := range id {
		seed = seed*31 + int64(c)
	}
	key, err := jobs.Spec{Seed: seed, Apps: []string{"vectoradd"}, Profiling: []string{"vectoradd"}}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return jobs.ChunkRequest{
		Job:   "j000001-test",
		Chunk: jobs.Chunk{ID: id, Phase: jobs.PhaseSoftware, Arg: "vectoradd"},
		Spec:  spec,
		Key:   key,
	}
}

func newTestCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *jobs.Ledger, *store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	led := jobs.NewLedger(jobs.LedgerOptions{TTL: ttl})
	c, err := NewCoordinator(CoordinatorOptions{Ledger: led, Store: st, SweepEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, led, st, srv
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestGrantSignAndVerify(t *testing.T) {
	g, err := SignGrant(LeaseGrant{Lease: "L000001-abcd", Worker: "w1", TTLSec: 30, Work: testReq(t, "sw:vectoradd")})
	if err != nil {
		t.Fatal(err)
	}
	if g.Digest == "" {
		t.Fatal("signed grant has empty digest")
	}
	if err := VerifyGrant(g); err != nil {
		t.Fatalf("fresh grant failed verification: %v", err)
	}
	tampered := g
	tampered.Work.Key = g.Work.Key[:len(g.Work.Key)-1] + "0"
	if err := VerifyGrant(tampered); err == nil {
		t.Fatal("tampered grant passed verification")
	}
	tampered = g
	tampered.TTLSec = 99
	if err := VerifyGrant(tampered); err == nil {
		t.Fatal("TTL-tampered grant passed verification")
	}
}

func TestLeaseCompleteRoundTrip(t *testing.T) {
	_, led, st, srv := newTestCoordinator(t, time.Minute)
	req := testReq(t, "sw:vectoradd")
	led.Offer(req)

	var lr LeaseResponse
	if code := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "w1", Max: 4}, &lr); code != 200 {
		t.Fatalf("lease status = %d", code)
	}
	if len(lr.Grants) != 1 {
		t.Fatalf("grants = %d, want 1", len(lr.Grants))
	}
	g := lr.Grants[0]
	if err := VerifyGrant(g); err != nil {
		t.Fatalf("coordinator issued unverifiable grant: %v", err)
	}
	if g.Work.Key != req.Key {
		t.Fatalf("granted key %s, offered %s", g.Work.Key, req.Key)
	}

	var cr CompleteResponse
	payload := []byte(`{"ok":true}`)
	postJSON(t, srv.URL+"/cluster/complete",
		CompleteRequest{Worker: "w1", Lease: g.Lease, Key: g.Work.Key, Payload: payload}, &cr)
	if cr.Status != string(jobs.CompleteOK) {
		t.Fatalf("complete status = %q, want ok", cr.Status)
	}
	if b, ok := st.Get(req.Key); !ok || !bytes.Equal(b, payload) {
		t.Fatalf("payload not in coordinator store: %q, %v", b, ok)
	}
	if err := led.Wait(context.Background(), req.Key); err != nil {
		t.Fatalf("ledger wait after complete: %v", err)
	}

	// A duplicate completion (expired lease delivering late) is "late".
	postJSON(t, srv.URL+"/cluster/complete",
		CompleteRequest{Worker: "w2", Lease: "L999999-stale", Key: g.Work.Key, Payload: payload}, &cr)
	if cr.Status != string(jobs.CompleteLate) {
		t.Fatalf("duplicate complete status = %q, want late", cr.Status)
	}
}

func TestCompleteUnknownKeyRejected(t *testing.T) {
	_, _, st, srv := newTestCoordinator(t, time.Minute)
	req := testReq(t, "sw:vectoradd")
	var cr CompleteResponse
	postJSON(t, srv.URL+"/cluster/complete",
		CompleteRequest{Worker: "w1", Lease: "L000001-xxxx", Key: req.Key, Payload: []byte("x")}, &cr)
	if cr.Status != string(jobs.CompleteUnknown) {
		t.Fatalf("status = %q, want unknown", cr.Status)
	}
	// The payload still landed in the store (content-addressed, harmless)
	// but the ledger rejected the completion.
	if _, ok := st.Get(req.Key); !ok {
		t.Fatal("content-addressed payload should still be stored")
	}
}

func TestErrorCompleteFailsChunk(t *testing.T) {
	_, led, st, srv := newTestCoordinator(t, time.Minute)
	req := testReq(t, "sw:vectoradd")
	led.Offer(req)
	var lr LeaseResponse
	postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "w1", Max: 1}, &lr)
	var cr CompleteResponse
	postJSON(t, srv.URL+"/cluster/complete",
		CompleteRequest{Worker: "w1", Lease: lr.Grants[0].Lease, Key: req.Key, Error: "boom"}, &cr)
	if cr.Status != string(jobs.CompleteOK) {
		t.Fatalf("error complete status = %q, want ok", cr.Status)
	}
	if err := led.Wait(context.Background(), req.Key); err == nil {
		t.Fatal("wait on failed chunk returned nil")
	}
	if _, ok := st.Get(req.Key); ok {
		t.Fatal("failed completion must not store a payload")
	}
}

func TestHeartbeatRenewsAndReportsLost(t *testing.T) {
	_, led, _, srv := newTestCoordinator(t, time.Minute)
	led.Offer(testReq(t, "sw:vectoradd"))
	var lr LeaseResponse
	postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "w1", Max: 1}, &lr)

	var hr HeartbeatResponse
	postJSON(t, srv.URL+"/cluster/heartbeat",
		HeartbeatRequest{Worker: "w1", Leases: []string{lr.Grants[0].Lease, "L999999-gone"}}, &hr)
	if hr.Renewed != 1 {
		t.Fatalf("renewed = %d, want 1", hr.Renewed)
	}
	if len(hr.Lost) != 1 || hr.Lost[0] != "L999999-gone" {
		t.Fatalf("lost = %v, want the stale lease", hr.Lost)
	}
}

func TestWorkersViewSortedWithLedgerStats(t *testing.T) {
	_, led, _, srv := newTestCoordinator(t, time.Minute)
	led.Offer(testReq(t, "sw:vectoradd"))
	for _, w := range []string{"zeta", "alpha", "mid"} {
		postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: w, Max: 1}, &LeaseResponse{})
	}
	resp, err := http.Get(srv.URL + "/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr WorkersResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Workers) != 3 {
		t.Fatalf("workers = %d, want 3", len(wr.Workers))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if wr.Workers[i].Name != want {
			t.Fatalf("worker[%d] = %s, want %s (sorted order)", i, wr.Workers[i].Name, want)
		}
		if !wr.Workers[i].Live {
			t.Fatalf("worker %s not live immediately after contact", want)
		}
	}
	// zeta leased first and holds the only chunk.
	if wr.Ledger.Leased != 1 || wr.Ledger.Pending != 0 {
		t.Fatalf("ledger stats = %+v", wr.Ledger)
	}
}

func TestChunkEndpointServesAndMisses(t *testing.T) {
	_, _, st, srv := newTestCoordinator(t, time.Minute)
	req := testReq(t, "sw:vectoradd")
	if err := st.Put(req.Key, []byte("dep-payload")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/cluster/chunks/" + req.Key)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 64)
	n, _ := resp.Body.Read(b)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(b[:n]) != "dep-payload" {
		t.Fatalf("chunk fetch = %d %q", resp.StatusCode, b[:n])
	}
	resp, err = http.Get(srv.URL + "/cluster/chunks/" + testReq(t, "other").Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing chunk status = %d, want 404", resp.StatusCode)
	}
}

func TestExpiredLeaseReassignedToSecondWorker(t *testing.T) {
	c, led, _, srv := newTestCoordinator(t, 50*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Stop()

	led.Offer(testReq(t, "sw:vectoradd"))
	var lr LeaseResponse
	postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "dead", Max: 1}, &lr)
	if len(lr.Grants) != 1 {
		t.Fatalf("grants = %d", len(lr.Grants))
	}
	// "dead" never heartbeats; the sweeper must return the chunk to
	// pending and a second worker must receive it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var lr2 LeaseResponse
		postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{Worker: "alive", Max: 1}, &lr2)
		if len(lr2.Grants) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never reassigned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if led.Reassignments() == 0 {
		t.Fatal("reassignment counter not incremented")
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	_, _, _, srv := newTestCoordinator(t, time.Minute)
	if code := postJSON(t, srv.URL+"/cluster/lease", LeaseRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("nameless lease status = %d, want 400", code)
	}
	if code := postJSON(t, srv.URL+"/cluster/complete", CompleteRequest{Worker: "w"}, nil); code != http.StatusBadRequest {
		t.Fatalf("keyless complete status = %d, want 400", code)
	}
}

// TestOversizeBodiesRejectedBeforeState: every POST route refuses a body
// past its bound with 413 before it registers the worker, grants a lease,
// stores a payload or flips the ledger. The bodies are well-formed JSON
// whose padding sits in an ignored field, so an unbounded decoder would
// accept each of them.
func TestOversizeBodiesRejectedBeforeState(t *testing.T) {
	c, led, st, srv := newTestCoordinator(t, time.Minute)
	req := testReq(t, "sw:vectoradd")
	led.Offer(req)
	before := led.Stats()

	for _, tc := range []struct {
		route, fields string
		limit         int
	}{
		{"/cluster/lease", `"worker":"w1","max":4`, maxControlBody},
		{"/cluster/heartbeat", `"worker":"w1"`, maxControlBody},
		{"/cluster/complete", `"worker":"w1","lease":"L1","key":"` + req.Key + `","payload":"AAAA"`, maxCompleteBody},
	} {
		body := io.MultiReader(
			strings.NewReader("{"+tc.fields+`,"pad":"`),
			io.LimitReader(padReader{}, int64(tc.limit)),
			strings.NewReader(`"}`))
		resp, err := http.Post(srv.URL+tc.route, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", tc.route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize body status = %d, want 413", tc.route, resp.StatusCode)
		}
	}

	c.mu.Lock()
	nWorkers := len(c.workers)
	c.mu.Unlock()
	if nWorkers != 0 {
		t.Errorf("oversize requests registered %d worker(s)", nWorkers)
	}
	if after := led.Stats(); after != before {
		t.Errorf("ledger moved: %+v -> %+v", before, after)
	}
	if _, ok := st.Get(req.Key); ok {
		t.Error("oversize completion stored its payload")
	}
}

// padReader yields an endless run of 'x'.
type padReader struct{}

func (padReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestWorkerDefaultBatchWorkersPassThrough: a worker built with default
// options hands BatchWorkers 0 to the chunk executor — "GOMAXPROCS",
// which gatesim resolves — as faultsimd -batch-workers documents for
// every role, instead of pinning gate chunks to one thread.
func TestWorkerDefaultBatchWorkersPassThrough(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{Name: "w", Coordinator: "http://unused.invalid", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.opts.BatchWorkers; got != 0 {
		t.Fatalf("default BatchWorkers resolved to %d in the worker, want 0 passed through", got)
	}
}
