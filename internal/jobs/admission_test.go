package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpufaultsim/internal/store"
)

// TestConcurrentSubmissionsRaceAdmissionLimit hammers Submit from
// many goroutines against a small MaxPending. Under -race this is the
// proof that admission control holds its invariant exactly: every
// attempt is either admitted (distinct job, runs to completion) or
// rejected with ErrQueueFull (no job, no record, no queue entry) —
// no submission is lost, none is double-admitted, and the observed
// pending count never exceeds the limit. All attempts carry the same
// spec, so the final artifact set must also be deterministic: every
// admitted job produces byte-identical artifacts.
func TestConcurrentSubmissionsRaceAdmissionLimit(t *testing.T) {
	const limit = 3
	const attempts = 24

	dir := t.TempDir()
	st, err := store.Open(dir+"/cache", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Dir: dir + "/jobs", Store: st,
		JobWorkers: 2, MaxPending: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	rejectedBefore := telRejectFull.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	// Sampler: the pending count must never be seen above the limit
	// while submissions race admissions.
	var overLimit atomic.Int64
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stopSampler:
				return
			default:
			}
			if p := s.Pending(); p > limit {
				overLimit.Store(int64(p))
				return
			}
		}
	}()

	var mu sync.Mutex
	var admitted []Status
	var rejected int
	var wg sync.WaitGroup
	for g := 0; g < attempts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.Submit(tinySpec())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted = append(admitted, st)
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	wg.Wait()

	if len(admitted)+rejected != attempts {
		t.Fatalf("admitted %d + rejected %d != %d attempts", len(admitted), rejected, attempts)
	}
	if len(admitted) == 0 || len(admitted) > limit {
		t.Fatalf("admitted %d jobs, want 1..%d (all %d submissions raced the limit)", len(admitted), limit, attempts)
	}
	if got := telRejectFull.Value() - rejectedBefore; got != int64(rejected) {
		t.Fatalf("jobs_rejected_total{queue_full} delta = %d, want %d", got, rejected)
	}

	// No double admission: IDs are unique, and each admitted ID resolves
	// to a registered job. No lost jobs: the job table holds exactly the
	// admitted set.
	seen := make(map[string]bool)
	for _, a := range admitted {
		if seen[a.ID] {
			t.Fatalf("job ID %s admitted twice", a.ID)
		}
		seen[a.ID] = true
		if _, ok := s.Job(a.ID); !ok {
			t.Fatalf("admitted job %s lost", a.ID)
		}
	}
	if got := len(s.Jobs()); got != len(admitted) {
		t.Fatalf("job table has %d jobs, want %d (rejections must leave no job)", got, len(admitted))
	}

	// Every admitted job finishes, and the artifact set is deterministic:
	// identical specs yield byte-identical artifacts across all of them.
	var ref map[string][]byte
	for _, a := range admitted {
		fin := waitState(t, s, a.ID, StateDone)
		arts := make(map[string][]byte, len(fin.Artifacts))
		if len(fin.Artifacts) != 4 {
			t.Fatalf("job %s artifacts = %v, want 4", a.ID, fin.Artifacts)
		}
		for _, name := range fin.Artifacts {
			b, ok := s.Artifact(a.ID, name)
			if !ok || len(b) == 0 {
				t.Fatalf("job %s artifact %s missing", a.ID, name)
			}
			arts[name] = b
		}
		if ref == nil {
			ref = arts
			continue
		}
		for name, b := range arts {
			if !bytes.Equal(ref[name], b) {
				t.Fatalf("artifact %s differs between admitted jobs under load", name)
			}
		}
	}

	close(stopSampler)
	samplerWG.Wait()
	if v := overLimit.Load(); v != 0 {
		t.Fatalf("pending count observed at %d, above admission limit %d", v, limit)
	}
}

// TestFailedSubmitLeavesNoJob: a submission whose job record cannot be
// written takes no pending slot and leaves no job behind, so the next
// submission is admitted once the directory is back.
func TestFailedSubmitLeavesNoJob(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir+"/cache", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir + "/jobs", Store: st, MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.Remove(jobsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobsDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Submit(tinySpec())
	if err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("submit into a file: %v, want a not-a-directory error", err)
	}
	if got.ID != "" || len(s.Jobs()) != 0 || s.Pending() != 0 {
		t.Fatalf("failed submit left status %+v, %d jobs, %d pending", got, len(s.Jobs()), s.Pending())
	}

	if err := os.Remove(jobsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	got, err = s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("submit after the directory is back: %v", err)
	}
	if names := dirNames(t, jobsDir); len(s.Jobs()) != 1 || len(names) != 1 || names[0] != got.ID+".json" {
		t.Fatalf("after one good submit: %d jobs, directory %v", len(s.Jobs()), names)
	}
}

// TestDispatchFollowsSubmissionOrder: with one job worker, jobs queued
// before the pool starts run one after another in submission order —
// each starts only after the one submitted before it has finished.
func TestDispatchFollowsSubmissionOrder(t *testing.T) {
	s := newTestScheduler(t, t.TempDir()) // JobWorkers: 1
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		sp := tinySpec()
		sp.Seed = seed
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for k := 1; k < len(ids); k++ {
		prev, next := s.jobs[ids[k-1]], s.jobs[ids[k]]
		if next.started.Before(prev.finished) {
			t.Errorf("job %s (submitted %d) started before job %s (submitted %d) finished", next.ID, k, prev.ID, k-1)
		}
	}
}
