package jobs

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gpufaultsim/internal/store"
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

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Seed: 1, Apps: []string{"no-such-app"}}).Validate(); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatal(err)
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
