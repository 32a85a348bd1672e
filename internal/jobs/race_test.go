package jobs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentReadsDuringCheckpointing hammers every read-side API — job
// status, job lists, cache lookups and stats, phase timings — while a job
// executes and checkpoints chunk completions. Run under -race this is the
// proof that the scheduler's mutex discipline and the store's internal
// locking hold up when readers overlap the write path (ensureChunk →
// store.Put → markChunkDone → saveCheckpoint).
func TestConcurrentReadsDuringCheckpointing(t *testing.T) {
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur, ok := s.Job(st.ID)
				if !ok {
					t.Error("job vanished mid-run")
					return
				}
				// Read cached payloads of whatever chunks have finished so
				// store.Get races against the writer's store.Put.
				for _, c := range cur.Chunks {
					if c.Done && c.CacheKey != "" {
						s.store.Get(c.CacheKey)
					}
				}
				s.Jobs()
				s.MetricsSnapshot()
				s.PhaseTimings()
				for _, name := range cur.Artifacts {
					s.Artifact(st.ID, name)
				}
			}
		}()
	}

	final := waitState(t, s, st.ID, StateDone)
	close(stop)
	wg.Wait()

	for _, c := range final.Chunks {
		if !c.Done {
			t.Fatalf("chunk %s not done after StateDone", c.ID)
		}
	}
}

// TestStopMidJobThenRecover interrupts a running job — cancelling the
// chunk-level ParallelMapCtx mid-batch — then recovers it on a fresh
// scheduler over the same checkpoint directory and cache. The job must
// resume from its checkpoints and finish, reusing every chunk completed
// before the interruption.
func TestStopMidJobThenRecover(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	s.Start(context.Background())

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Catch the job as early into execution as possible so Stop lands
	// mid-batch; if the tiny campaign outruns us, recovery of a finished
	// job is still a valid (if weaker) pass.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		cur, _ := s.Job(st.ID)
		if cur.State == StateRunning || cur.State == StateDone {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.Stop()

	s2 := newTestScheduler(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	defer s2.Stop()
	if _, errs := s2.Recover(); len(errs) > 0 {
		t.Fatalf("recover: %v", errs)
	}
	final := waitState(t, s2, st.ID, StateDone)
	if len(final.Artifacts) != 4 {
		t.Fatalf("recovered job artifacts = %v, want 4", final.Artifacts)
	}
	for _, name := range final.Artifacts {
		if b, ok := s2.Artifact(st.ID, name); !ok || len(b) == 0 {
			t.Fatalf("artifact %s missing after recovery", name)
		}
	}
}
