package jobs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
)

// fakeClock is an injectable ledger clock tests advance by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func ledgerReq(t *testing.T, n int) ChunkRequest {
	t.Helper()
	key, err := Spec{Seed: int64(n), Apps: []string{"vectoradd"}, Profiling: []string{"vectoradd"}}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return ChunkRequest{
		Job:   "j000001-test",
		Chunk: Chunk{ID: fmt.Sprintf("sw:chunk%d", n), Phase: PhaseSoftware, Arg: "vectoradd"},
		Spec:  Spec{Seed: 7, Apps: []string{"vectoradd"}, Profiling: []string{"vectoradd"}},
		Key:   key,
	}
}

func TestLedgerLeaseExpireReassign(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := NewLedger(LedgerOptions{TTL: time.Minute, Now: clk.Now})
	req := ledgerReq(t, 1)
	l.Offer(req, telemetry.TraceContext{})
	l.Offer(req, telemetry.TraceContext{}) // idempotent

	grants := l.Lease("w1", 4)
	if len(grants) != 1 {
		t.Fatalf("grants = %d, want 1 (duplicate offer must not duplicate the chunk)", len(grants))
	}
	if got := l.Lease("w2", 4); len(got) != 0 {
		t.Fatalf("second worker leased an active chunk: %v", got)
	}

	// Heartbeats hold the lease across the TTL.
	clk.Advance(45 * time.Second)
	renewed, lost := l.Renew("w1", []string{grants[0].Lease})
	if renewed != 1 || len(lost) != 0 {
		t.Fatalf("renew = %d, lost %v", renewed, lost)
	}
	clk.Advance(45 * time.Second)
	if n := l.Expire(); n != 0 {
		t.Fatalf("renewed lease expired: %d", n)
	}

	// Silence past the TTL: the chunk goes back to pending and a second
	// worker picks it up.
	clk.Advance(2 * time.Minute)
	if n := l.Expire(); n != 1 {
		t.Fatalf("expired = %d, want 1", n)
	}
	if l.Reassignments() != 1 {
		t.Fatalf("reassignments = %d, want 1", l.Reassignments())
	}
	g2 := l.Lease("w2", 1)
	if len(g2) != 1 || g2[0].Lease == grants[0].Lease {
		t.Fatalf("reassigned grant = %+v", g2)
	}

	// The dead worker's renewal now reports its lease lost.
	if _, lost := l.Renew("w1", []string{grants[0].Lease}); len(lost) != 1 {
		t.Fatalf("dead worker renew lost = %v, want the stale lease", lost)
	}

	// The dead worker's late completion is accepted (content-addressed
	// payloads are identical) but recorded as the live worker completing
	// wins.
	if out := l.Complete(g2[0].Lease, "w2", req.Key, ""); out != CompleteOK {
		t.Fatalf("complete = %v", out)
	}
	if out := l.Complete(grants[0].Lease, "w1", req.Key, ""); out != CompleteLate {
		t.Fatalf("late complete = %v", out)
	}
	if err := l.Wait(context.Background(), req.Key); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Done != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLedgerFailureAndRevival(t *testing.T) {
	l := NewLedger(LedgerOptions{TTL: time.Minute})
	req := ledgerReq(t, 2)
	l.Offer(req, telemetry.TraceContext{})
	g := l.Lease("w1", 1)
	if out := l.Complete(g[0].Lease, "w1", req.Key, "compute exploded"); out != CompleteOK {
		t.Fatalf("error complete = %v", out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Wait(ctx, req.Key); err == nil {
		t.Fatal("wait on failed chunk returned nil")
	}

	// A resubmitted job re-offers the key: failed revives to pending and
	// the retry can succeed.
	l.Offer(req, telemetry.TraceContext{})
	if st := l.Stats(); st.Pending != 1 || st.Failed != 0 {
		t.Fatalf("revived stats = %+v", st)
	}
	g = l.Lease("w2", 1)
	if len(g) != 1 {
		t.Fatalf("revived chunk not leasable: %v", g)
	}
	done := make(chan error, 1)
	go func() { done <- l.Wait(context.Background(), req.Key) }()
	l.Complete(g[0].Lease, "w2", req.Key, "")
	if err := <-done; err != nil {
		t.Fatalf("wait after revival: %v", err)
	}
}

func TestLedgerWaitUnknownKeyAndCancel(t *testing.T) {
	l := NewLedger(LedgerOptions{TTL: time.Minute})
	if err := l.Wait(context.Background(), "deadbeefdeadbeef"); err == nil {
		t.Fatal("wait on unoffered key returned nil")
	}
	req := ledgerReq(t, 3)
	l.Offer(req, telemetry.TraceContext{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx, req.Key); err == nil {
		t.Fatal("wait with canceled context returned nil")
	}
}

// TestLedgerConcurrentLeaseCompleteExpire is the -race ordering test:
// many workers lease, complete and renew chunks while the clock jumps
// and an expiry sweeper runs. Invariants: every chunk settles done,
// every waiter wakes, and pending+leased reach zero.
func TestLedgerConcurrentLeaseCompleteExpire(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := NewLedger(LedgerOptions{TTL: 50 * time.Millisecond, Now: clk.Now})

	const chunks = 40
	reqs := make([]ChunkRequest, chunks)
	for i := range reqs {
		reqs[i] = ledgerReq(t, 100+i)
		l.Offer(reqs[i], telemetry.TraceContext{})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var completions atomic.Int64

	// Waiters: one per chunk, all must return nil.
	waitErr := make([]error, chunks)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			waitErr[i] = l.Wait(ctx, reqs[i].Key)
		}(i)
	}

	// Sweeper: expires leases while the clock advances, forcing
	// reassignment interleavings.
	sweepCtx, sweepStop := context.WithCancel(context.Background())
	var sweepWg sync.WaitGroup
	sweepWg.Add(1)
	go func() {
		defer sweepWg.Done()
		for sweepCtx.Err() == nil {
			clk.Advance(30 * time.Millisecond)
			l.Expire()
			time.Sleep(time.Millisecond)
		}
	}()

	// Workers: lease a few chunks, complete some, abandon others (to be
	// expired and reassigned), renew a few.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for completions.Load() < chunks && ctx.Err() == nil {
				grants := l.Lease(name, 3)
				for gi, g := range grants {
					switch (w + gi) % 3 {
					case 0, 1:
						if l.Complete(g.Lease, name, g.Req.Key, "") == CompleteOK {
							completions.Add(1)
						}
					default:
						// Abandon: hold the lease briefly, renew once, then
						// go silent so the sweeper reassigns it.
						l.Renew(name, []string{g.Lease})
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	wg.Wait()
	sweepStop()
	sweepWg.Wait()

	for i, err := range waitErr {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Done != chunks || st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("final stats = %+v, want %d done", st, chunks)
	}
}

// TestLedgerDropsPatternsWhenDone: a gate entry's patterns go when the
// entry turns done (it is never leased again), and stay when it fails,
// so the re-offer that revives it grants them again.
func TestLedgerDropsPatternsWhenDone(t *testing.T) {
	l := NewLedger(LedgerOptions{TTL: time.Minute})
	patterns := []units.Pattern{{PC: 1}, {PC: 2}}
	gate := func(n int) ChunkRequest {
		req := ledgerReq(t, n)
		req.Chunk = Chunk{ID: "gate:wsc", Phase: PhaseGate, Arg: "wsc"}
		req.Patterns = patterns
		return req
	}
	held := func(key string) int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.entries[key].req.Patterns)
	}
	done, failed := gate(1), gate(2)
	l.Offer(done, telemetry.TraceContext{})
	l.Offer(failed, telemetry.TraceContext{})
	grants := l.Lease("w1", 2)
	if len(grants) != 2 || len(grants[0].Req.Patterns) != 2 || len(grants[1].Req.Patterns) != 2 {
		t.Fatalf("grants %+v do not carry the offered patterns", grants)
	}
	l.Complete(grants[0].Lease, "w1", done.Key, "")
	l.Complete(grants[1].Lease, "w1", failed.Key, "boom")
	if n := held(done.Key); n != 0 {
		t.Fatalf("done entry still holds %d patterns", n)
	}
	if n := held(failed.Key); n != 2 {
		t.Fatalf("failed entry holds %d patterns, want 2", n)
	}
	l.Offer(failed, telemetry.TraceContext{})
	again := l.Lease("w2", 2)
	if len(again) != 1 || again[0].Req.Key != failed.Key || len(again[0].Req.Patterns) != 2 {
		t.Fatalf("revived entry granted %+v, want the failed chunk with its patterns", again)
	}
}

// remoteFakeWorker drives the ledger the way a cluster worker does —
// lease, compute via ComputeChunk, store, complete — without the HTTP
// transport, so the jobs package can test coordinator-mode scheduling
// in isolation.
func remoteFakeWorker(ctx context.Context, s *Scheduler, name string, delay time.Duration) {
	l := s.opts.Ledger
	for ctx.Err() == nil {
		grants := l.Lease(name, 2)
		if len(grants) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		for _, g := range grants {
			if delay > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(delay):
				}
			}
			b, err := ComputeChunk(g.Req)
			if err != nil {
				l.Complete(g.Lease, name, g.Req.Key, err.Error())
				continue
			}
			s.store.Put(g.Req.Key, b)
			l.Complete(g.Lease, name, g.Req.Key, "")
		}
	}
}

// TestCoordinatorOffersWholePhase: a coordinator offers every chunk of a
// phase at once, whatever its own CPU count. Under GOMAXPROCS 1, with no
// worker but the test completing the profile chunk by hand, all three
// gate chunks then wait in the ledger as pending.
func TestCoordinatorOffersWholePhase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestScheduler(t, t.TempDir())
	l := NewLedger(LedgerOptions{TTL: time.Minute})
	s.opts.Ledger = l
	s.Start(context.Background())
	defer s.Stop()
	if _, err := s.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var grants []Grant
	for len(grants) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("profile chunk never offered")
		}
		time.Sleep(time.Millisecond)
		grants = l.Lease("hand", 1)
	}
	g := grants[0]
	b, err := ComputeChunk(g.Req)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.store.Put(g.Req.Key, b); err != nil {
		t.Fatal(err)
	}
	l.Complete(g.Lease, "hand", g.Req.Key, "")

	gates := len(units.All())
	for l.Stats().Pending < gates && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := l.Stats(); st.Pending != gates || st.Done != 1 {
		t.Fatalf("after the profile chunk: ledger %+v, want %d gate chunks pending", st, gates)
	}
}

// TestDrainDuringActiveRemoteLease drains a coordinator-mode scheduler
// while a worker is mid-lease: with a live worker and a generous grace
// the drain completes cleanly and the job finishes.
func TestDrainDuringActiveRemoteLease(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	s.opts.Ledger = NewLedger(LedgerOptions{TTL: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); remoteFakeWorker(wctx, s, "w1", 2*time.Millisecond) }()

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Drain(120 * time.Second) {
		t.Fatal("drain with a live worker did not complete")
	}
	final, _ := s.Job(st.ID)
	if final.State != StateDone {
		t.Fatalf("job after drain = %s (%s), want done", final.State, final.Err)
	}
	wcancel()
	wg.Wait()
}

// TestCoordinatorRestartRecoversLedgerFromCheckpoints is the node-death
// half of kill-and-resume: a coordinator whose workers vanished drains
// past its grace (job interrupted mid-lease), then a NEW scheduler and a
// NEW empty ledger — a restarted coordinator process — recover from the
// checkpoints alone. Recover re-runs the job, cache hits skip everything
// already computed, and the remaining chunks are re-offered to the fresh
// ledger and completed by a new worker.
func TestCoordinatorRestartRecoversLedgerFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	s.opts.Ledger = NewLedger(LedgerOptions{TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// A worker that completes only the profile chunk, then vanishes.
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := s.opts.Ledger
		for wctx.Err() == nil {
			for _, g := range l.Lease("doomed", 1) {
				if g.Req.Chunk.Phase != PhaseProfile {
					wcancel() // die holding this lease
					return
				}
				b, err := ComputeChunk(g.Req)
				if err != nil {
					l.Complete(g.Lease, "doomed", g.Req.Key, err.Error())
					continue
				}
				s.store.Put(g.Req.Key, b)
				l.Complete(g.Lease, "doomed", g.Req.Key, "")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	<-wctx.Done()
	wg.Wait()

	// Grace expires with chunks still outstanding: the job stays
	// resumable, exactly like a single-node interruption.
	if s.Drain(200 * time.Millisecond) {
		t.Fatal("drain without workers should not complete")
	}
	mid, _ := s.Job(st.ID)
	if mid.State != StateQueued {
		t.Fatalf("interrupted job = %s, want queued (resumable)", mid.State)
	}

	// "Restart": a new scheduler over the same dirs with a brand-new
	// ledger. No ledger state survived — only checkpoints + store.
	s2 := newTestScheduler(t, dir)
	s2.opts.Ledger = NewLedger(LedgerOptions{TTL: time.Minute})
	requeued, errs := s2.Recover()
	if len(errs) != 0 || requeued != 1 {
		t.Fatalf("recover = %d jobs, errs %v", requeued, errs)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)
	defer s2.Stop()

	w2ctx, w2cancel := context.WithCancel(context.Background())
	defer w2cancel()
	wg.Add(1)
	go func() { defer wg.Done(); remoteFakeWorker(w2ctx, s2, "fresh", 0) }()
	defer wg.Wait()
	defer w2cancel()

	final := waitState(t, s2, st.ID, StateDone)
	for _, c := range final.Chunks {
		if !c.Done {
			t.Fatalf("chunk %s not done after recovery", c.ID)
		}
	}
	// The profile chunk was computed before the "crash": recovery must
	// serve it from the store, not recompute it remotely.
	profKey, err := profileKey(tinySpec().WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.store.Get(profKey); !ok {
		t.Fatal("profile payload lost across restart")
	}
	if st2 := s2.opts.Ledger.Stats(); st2.Pending != 0 || st2.Leased != 0 {
		t.Fatalf("fresh ledger not settled: %+v", st2)
	}
}
