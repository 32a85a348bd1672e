package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/units"
)

// tinySpec keeps campaigns fast enough for unit tests while still
// exercising every phase.
func tinySpec() Spec {
	return Spec{
		Seed:        7,
		MaxPatterns: 16,
		Injections:  2,
		Apps:        []string{"vectoradd"},
		Profiling:   []string{"vectoradd", "gemm"},
	}
}

func newTestScheduler(t *testing.T, dir string) *Scheduler {
	t.Helper()
	st, err := store.Open(dir+"/cache", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir + "/jobs", Store: st, JobWorkers: 1, ChunkWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitState(t *testing.T, s *Scheduler, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
	return Status{}
}

func TestChunksDeterministic(t *testing.T) {
	spec := tinySpec().WithDefaults()
	a, b := Chunks(spec), Chunks(spec)
	if len(a) != len(b) || len(a) != 1+3+1 {
		t.Fatalf("chunk count = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].ID != "profile" || a[1].Phase != PhaseGate || a[4].ID != "sw:vectoradd" {
		t.Fatalf("unexpected chunk order: %+v", a)
	}
}

func TestSpecDigestIgnoresDefaultSpelling(t *testing.T) {
	implicit := Spec{Seed: 3}
	explicit := implicit.WithDefaults()
	d1, err := implicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := explicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest differs for defaulted spec: %s vs %s", d1, d2)
	}
}

// TestDefaultSpecDigestPinned: the default spec's digest — and with it the
// default apps, the 13 of workloads.Evaluation — does not move when the
// set of names a spec may use grows.
func TestDefaultSpecDigestPinned(t *testing.T) {
	const want = "95ec69c702bc201cac11e8d4224d12f1d3a5ff8cd60231f98a7e9d831e565b91"
	if got, err := (Spec{}).Digest(); err != nil || got != want {
		t.Fatalf("Spec{}.Digest() = %s, %v; want %s", got, err, want)
	}
}

// TestSoftwareChunkRunsCNNs: a spec may name LeNet and YOLOv3, and a
// sw:lenet chunk holds the row a direct software step over cnn.LeNet gives.
func TestSoftwareChunkRunsCNNs(t *testing.T) {
	spec := Spec{Seed: 7, Injections: 1, Apps: []string{"lenet", "yolov3"}}.WithDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := ComputeChunk(ChunkRequest{
		Chunk: Chunk{ID: "sw:lenet", Phase: PhaseSoftware, Arg: "lenet"}, Spec: spec,
	}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.SoftwareStep(cnn.LeNet{Digit: 3}, spec.campaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	row := artifact.NewSoftwareReport(spec.Seed, spec.Injections, []*perfi.AppResult{res}).Apps[0]
	want, err := artifact.Canonical(softwarePayload{Schema: chunkSchema, Row: row})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sw:lenet payload differs from the direct step:\n got %s\nwant %s", got, want)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Seed: 1, Apps: []string{"no-such-app"}}).Validate(); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatal(err)
	}
	// Campaign sizes are bounded above: the limit itself passes, one past
	// it is rejected with the field and the limit in the message.
	for _, tc := range []struct {
		spec Spec
		want string // "" = valid
	}{
		{Spec{MaxPatterns: maxSpecPatterns, Injections: maxSpecInjections}, ""},
		{Spec{MaxPatterns: maxSpecPatterns + 1}, "max_patterns 409601 exceeds the limit of 409600"},
		{Spec{Injections: maxSpecInjections + 1}, "injections 100001 exceeds the limit of 100000"},
	} {
		err := tc.spec.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: error %v, want one containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestGateChunkMatchesDenseUncollapsedOracle: the one configuration
// production runs (collapsed fault list, event engine) yields, through
// ComputeChunk, the bytes of the dense engine over the full fault list.
func TestGateChunkMatchesDenseUncollapsedOracle(t *testing.T) {
	spec := tinySpec().WithDefaults()
	profBytes, err := ComputeChunk(ChunkRequest{
		Chunk: Chunk{ID: "profile", Phase: PhaseProfile}, Spec: spec,
	}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prof profilePayload
	if err := json.Unmarshal(profBytes, &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Patterns) == 0 {
		t.Fatal("profile chunk produced no patterns")
	}
	dep := func(string) ([]byte, error) { return profBytes, nil }
	for _, u := range units.All() {
		got, err := ComputeChunk(ChunkRequest{
			Chunk: Chunk{ID: "gate:" + u.Name, Phase: PhaseGate, Arg: u.Name},
			Spec:  spec, ProfileKey: "profile",
		}, dep, 0)
		if err != nil {
			t.Fatal(err)
		}
		o := campaign.GateStep(u, prof.Patterns, false, gatesim.EngineFull, 1)
		want, err := artifact.Canonical(artifact.NewGateReport(spec.Seed, o.Summary, o.Collector))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: gate chunk payload differs from the dense uncollapsed campaign (%d vs %d bytes)",
				u.Name, len(got), len(want))
		}
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone)

	if len(final.Artifacts) != 4 { // gate_wsc, gate_fetch, gate_decoder, software
		t.Fatalf("artifacts = %v, want 4", final.Artifacts)
	}
	for _, name := range final.Artifacts {
		b, ok := s.Artifact(st.ID, name)
		if !ok || len(b) == 0 {
			t.Fatalf("artifact %s missing or empty", name)
		}
		if b[len(b)-1] != '\n' {
			t.Fatalf("artifact %s not newline-terminated", name)
		}
	}
	for _, c := range final.Chunks {
		if !c.Done || c.CacheKey == "" {
			t.Fatalf("chunk %s not done or missing cache key: %+v", c.ID, c)
		}
	}
	if cs := s.MetricsSnapshot().Cache; cs.Puts != 5 {
		t.Fatalf("cache puts = %d, want 5", cs.Puts)
	}
	tm := s.PhaseTimings()
	if tm[PhaseProfile] <= 0 || tm[PhaseGate] <= 0 || tm[PhaseSoftware] <= 0 {
		t.Fatalf("phase timings not all positive: %v", tm)
	}
}

func TestResubmitServedFromCache(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	first, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)

	second, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("resubmission reused the job ID")
	}
	fin := waitState(t, s, second.ID, StateDone)
	if fin.CacheHits != len(fin.Chunks) {
		t.Fatalf("cache hits = %d, want all %d chunks", fin.CacheHits, len(fin.Chunks))
	}

	for _, name := range fin.Artifacts {
		a, _ := s.Artifact(first.ID, name)
		b, _ := s.Artifact(second.ID, name)
		if !bytes.Equal(a, b) {
			t.Fatalf("artifact %s differs between identical submissions", name)
		}
	}
}

func TestSubscribeStreamsProgress(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, snap, ok := s.Subscribe(st.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	if snap.ChunksTotal != 5 {
		t.Fatalf("initial snapshot total = %d, want 5", snap.ChunksTotal)
	}
	sawDone := false
	for ev := range ch {
		if ev.State == string(StateDone) {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("stream closed without a done event")
	}

	// Subscribing to a finished job returns a closed channel and the
	// terminal snapshot.
	ch2, snap2, ok := s.Subscribe(st.ID)
	if !ok || snap2.State != string(StateDone) {
		t.Fatalf("late subscribe: ok=%v state=%s", ok, snap2.State)
	}
	if _, open := <-ch2; open {
		t.Fatal("late subscription channel not closed")
	}
}

func TestRecoverRestoresFinishedJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone)
	s.Stop()
	cancel()

	// Fresh scheduler over the same directories: the finished job comes
	// back with artifacts rebuilt from the cache, no recomputation.
	s2 := newTestScheduler(t, dir)
	requeued, errs := s2.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if requeued != 0 {
		t.Fatalf("requeued = %d, want 0 for a finished job", requeued)
	}
	got, ok := s2.Job(st.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("recovered job state = %v, ok=%v", got.State, ok)
	}
	for _, name := range final.Artifacts {
		a, _ := s.Artifact(st.ID, name)
		b, okB := s2.Artifact(st.ID, name)
		if !okB || !bytes.Equal(a, b) {
			t.Fatalf("recovered artifact %s differs or missing", name)
		}
	}
}

// oldCheckpoint is a job checkpoint as the daemon wrote it while the spec
// still carried "engine": interrupted with the profile and one gate chunk
// done under cache keys this store has never seen.
const oldCheckpoint = `{
  "schema": 1,
  "id": "j000003-5f0c2a9e",
  "digest": "5f0c2a9e6d1b4c7783a1f0e2d3c4b5a697887766554433221100ffeeddccbbaa",
  "spec": {
    "seed": 7,
    "max_patterns": 16,
    "injections": 2,
    "engine": "event",
    "apps": ["vectoradd"],
    "profiling": ["vectoradd", "gemm"]
  },
  "state": "running",
  "created": "2026-01-02T03:04:05Z",
  "chunks": [
    {"id": "profile", "phase": "profile", "arg": "", "done": true,
     "cache_key": "1111111111111111111111111111111111111111111111111111111111111111"},
    {"id": "gate:wsc", "phase": "gate", "arg": "wsc", "done": true,
     "cache_key": "2222222222222222222222222222222222222222222222222222222222222222"},
    {"id": "gate:fetch", "phase": "gate", "arg": "fetch", "done": false},
    {"id": "gate:decoder", "phase": "gate", "arg": "decoder", "done": false},
    {"id": "sw:vectoradd", "phase": "software", "arg": "vectoradd", "done": false}
  ]
}`

// TestRecoverAcceptsOldSpecFields: a checkpoint written before Engine and
// Collapse left the spec still recovers, and the resumed job's artifacts
// are byte-identical to a fresh submission of the same campaign.
func TestRecoverAcceptsOldSpecFields(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ref := newTestScheduler(t, t.TempDir())
	ref.Start(ctx)
	defer ref.Stop()
	refSt, err := ref.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitState(t, ref, refSt.ID, StateDone)

	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j000003-5f0c2a9e.json"), []byte(oldCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	requeued, errs := s.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if requeued != 1 {
		t.Fatalf("requeued = %d, want 1", requeued)
	}
	s.Start(ctx)
	defer s.Stop()
	final := waitState(t, s, "j000003-5f0c2a9e", StateDone)

	if len(final.Artifacts) != len(refFinal.Artifacts) {
		t.Fatalf("artifacts = %v, want %v", final.Artifacts, refFinal.Artifacts)
	}
	for _, name := range refFinal.Artifacts {
		want, _ := ref.Artifact(refSt.ID, name)
		got, ok := s.Artifact(final.ID, name)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("artifact %s of the recovered job differs from a fresh run", name)
		}
	}
}

func TestDrainRejectsNewSubmissions(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	if !s.Drain(5 * time.Second) {
		t.Fatal("idle scheduler failed to drain")
	}
	if _, err := s.Submit(tinySpec()); err == nil {
		t.Fatal("submit accepted after drain")
	}
}
