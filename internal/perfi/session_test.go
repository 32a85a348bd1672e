package perfi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

func provedHang(rr *workloads.RunResult) bool {
	return rr.Trap == gpu.TrapWatchdog && strings.HasPrefix(rr.TrapInfo, "hang proved")
}

// TestHangProofMatchesWatchdog holds Session.Run's shortcuts (the golden
// activation table's skips and the hang proof) to the from-scratch run
// over the software campaign of the repository benchmark's
// twolevel_paper15 workload: the 15 evaluation apps, every injectable
// model, 16 injections each, at the benchmark's seed and at a hold-out
// seed. Every descriptor runs twice on its app's session: from scratch,
// with an extra hook that keeps the shortcuts out, and as RunApp runs it.
// The outcomes must be the same, every proved hang must be a watchdog DUE
// from scratch, and every other run must be the from-scratch run with its
// simulated and skipped issues adding up to the from-scratch ones.
func TestHangProofMatchesWatchdog(t *testing.T) {
	if raceEnabled {
		t.Skip("2640 injections per seed, twice: skipped under -race; make verify runs it without")
	}
	for _, c := range []struct {
		seed                 int64
		scratch, simulated   uint64
		proved, skippedWhole int
	}{
		// The benchmark's seed: its from-scratch issues are
		// perfi.faulty_issues in benchmark/expected.json, since the
		// benchmark's replay injects from scratch.
		{seed: 1, scratch: 17234583, simulated: 4943299, proved: 220, skippedWhole: 513},
		// A hold-out seed that no shortcut was sized on.
		{seed: 60221023, scratch: 16960814, simulated: 4870947, proved: 205, skippedWhole: 511},
	} {
		t.Run(fmt.Sprint("seed", c.seed), func(t *testing.T) {
			var scratch, simulated uint64
			runs, watchdogs, proved, skippedWhole := 0, 0, 0, 0
			campaignDescriptors(t, c.seed, func(app string, sess *Session, d errmodel.Descriptor) {
				ref, want, err := sess.Run(d, gpu.HookFuncs{})
				if err != nil {
					t.Fatal(err)
				}
				got, outcome, err := sess.Run(d)
				if err != nil {
					t.Fatal(err)
				}
				runs++
				scratch += ref.Issues
				simulated += got.Issues
				if ref.Trap == gpu.TrapWatchdog {
					watchdogs++
				}
				if got.Issues == 0 {
					skippedWhole++
				}
				if outcome != want {
					t.Errorf("%s %v: outcome %v with the shortcuts, %v from scratch", app, d, outcome, want)
				}
				switch {
				case provedHang(got):
					proved++
					if ref.Trap != gpu.TrapWatchdog || got.Issues+got.Skipped >= ref.Issues {
						t.Errorf("%s %v: proved a hang at issue %d+%d, but from scratch: %v %s (%d issues)",
							app, d, got.Skipped, got.Issues, ref.Trap, ref.TrapInfo, ref.Issues)
					}
				case got.Trap != ref.Trap || got.TrapInfo != ref.TrapInfo || got.Issues+got.Skipped != ref.Issues ||
					!slices.Equal(got.Output, ref.Output):
					t.Errorf("%s %v: %v %q (%d+%d issues) with the shortcuts, %v %q (%d issues) from scratch",
						app, d, got.Trap, got.TrapInfo, got.Skipped, got.Issues, ref.Trap, ref.TrapInfo, ref.Issues)
				}
			})
			t.Logf("%d runs, %d watchdog DUEs from scratch, %d proved, %d skipped whole; warp-issues: %d from scratch, %d simulated (%.1f%%)",
				runs, watchdogs, proved, skippedWhole, scratch, simulated, 100*float64(simulated)/float64(scratch))
			if scratch != c.scratch {
				t.Errorf("from-scratch issues = %d, pinned %d", scratch, c.scratch)
			}
			if proved != c.proved || simulated != c.simulated || skippedWhole != c.skippedWhole {
				t.Errorf("proved %d hangs and skipped %d runs whole in %d simulated issues, pinned %d, %d and %d",
					proved, skippedWhole, simulated, c.proved, c.skippedWhole, c.simulated)
			}
		})
	}
}

// campaignDescriptors calls f with every descriptor of RunApp's campaign
// over the 15 evaluation apps at seed, 16 injections per model, in
// RunApp's draw order, and the app's session.
func campaignDescriptors(t *testing.T, seed int64, f func(app string, sess *Session, d errmodel.Descriptor)) {
	t.Helper()
	const injections = 16
	for _, w := range cnn.Evaluation15() {
		sess, err := NewSession(w, seed, gpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, m := range errmodel.Injectable() {
			for range injections {
				f(w.Name(), sess, errmodel.Random(m, rng, sess.MaxWarps, sess.Device.PPBsPerSM))
			}
		}
	}
}

// TestSkippedRunsAreGoldenFromScratch: every descriptor of both seeds'
// campaigns that Session.Run answers from the golden run whole is, run
// from scratch, Masked with the golden run's issue count.
func TestSkippedRunsAreGoldenFromScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("two campaigns' descriptors: skipped under -race; make verify runs it without")
	}
	for _, c := range []struct {
		seed    int64
		skipped int
	}{{1, 513}, {60221023, 511}} {
		skipped := 0
		campaignDescriptors(t, c.seed, func(app string, sess *Session, d errmodel.Descriptor) {
			got, outcome, err := sess.Run(d)
			if err != nil {
				t.Fatal(err)
			}
			if got.Issues != 0 {
				return
			}
			skipped++
			if outcome != workloads.OutcomeMasked || got.Skipped != sess.Golden.Issues ||
				!slices.Equal(got.Output, sess.Golden.Output) {
				t.Errorf("%s %v: skipped as %v with %d skipped issues, golden has %d", app, d, outcome, got.Skipped, sess.Golden.Issues)
			}
			ref, want, err := sess.Run(d, gpu.HookFuncs{})
			if err != nil {
				t.Fatal(err)
			}
			if want != workloads.OutcomeMasked || ref.Issues != sess.Golden.Issues {
				t.Errorf("%s %v: skipped, but from scratch %v %v in %d issues, golden %d",
					app, d, want, ref.Trap, ref.Issues, sess.Golden.Issues)
			}
		})
		if skipped != c.skipped {
			t.Errorf("seed %d: %d runs skipped whole, pinned %d", c.seed, skipped, c.skipped)
		}
	}
}

// TestSkippedRunOwnsItsOutput: a run answered from the golden run hands
// out a copy of the golden output, not the session's.
func TestSkippedRunOwnsItsOutput(t *testing.T) {
	sess := vectorAddSession(t)
	golden := slices.Clone(sess.Golden.Output)
	d := errmodel.Descriptor{Model: errmodel.IAT, Warps: []int{0}, Threads: 0} // no lane: never eligible
	first, _, err := sess.Run(d)
	if err != nil || first.Issues != 0 {
		t.Fatalf("%v %+v, want a run skipped whole", err, first)
	}
	for i := range first.Output {
		first.Output[i] ^= 1
	}
	next, outcome, err := sess.Run(d)
	if err != nil || next.Issues != 0 || outcome != workloads.OutcomeMasked {
		t.Fatalf("%v %v %+v, want a run skipped whole", err, outcome, next)
	}
	if !slices.Equal(sess.Golden.Output, golden) || !slices.Equal(next.Output, golden) {
		t.Error("writing into a skipped run's output changed the golden output or the next skipped run's")
	}
}

// detention is an IAC descriptor that detains warp 0 on every issue: it
// hangs any job.
func detention() errmodel.Descriptor {
	return errmodel.Descriptor{Model: errmodel.IAC, Warps: []int{0}, Threads: 0xFFFFFFFF, ErrOperLoc: 1}
}

func vectorAddSession(t *testing.T) *Session {
	t.Helper()
	sess, err := NewSession(workloads.VectorAdd{}, 42, gpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestHangProofScope: the proof runs only where no hook carries state
// across issues. A descriptor alone is proved; with an extra hook the same
// run goes to the watchdog.
func TestHangProofScope(t *testing.T) {
	sess := vectorAddSession(t)
	budget := sess.faulty.Cfg.MaxIssues

	rr, outcome, err := sess.Run(detention())
	if err != nil || outcome != workloads.OutcomeDUE || !provedHang(rr) || rr.Issues >= budget {
		t.Fatalf("detention: %v %v %+v, want a proved hang under %d issues", err, outcome, rr, budget)
	}

	sess.prover = hangProver{dev: sess.faulty, from: sess.prover.from}
	rr, outcome, err = sess.Run(detention(), gpu.HookFuncs{})
	if err != nil || outcome != workloads.OutcomeDUE || provedHang(rr) ||
		rr.Trap != gpu.TrapWatchdog || rr.Issues != budget+1 {
		t.Errorf("detention with an extra hook: %v %v %+v, want the watchdog at issue %d", err, outcome, rr, budget+1)
	}
	if sess.prover.next != 0 {
		t.Error("the prover ran beside an extra hook")
	}
}

// TestHangProofSteadyStateAllocs: the session reuses the prover's
// snapshot, so a second proved hang allocates no more than the same run
// left to the watchdog, and less than one warp's register file.
func TestHangProofSteadyStateAllocs(t *testing.T) {
	sess := vectorAddSession(t)
	d := detention()
	if rr, _, _ := sess.Run(d); !provedHang(rr) {
		t.Fatalf("warm-up: %+v, want a proved hang", rr)
	}
	proved := testing.AllocsPerRun(5, func() { sess.Run(d) })
	watchdog := testing.AllocsPerRun(5, func() { sess.Run(d, gpu.HookFuncs{}) })
	bytes := bytesPerRun(5, func() { sess.Run(d) })
	t.Logf("per run: %.0f allocs (%d bytes) proved, %.0f allocs to the watchdog", proved, bytes, watchdog)
	if proved > watchdog {
		t.Errorf("a proved hang allocates %.0f times per run, the watchdog's run %.0f", proved, watchdog)
	}
	if regs := uint64(4 * len(gpu.Warp{}.Regs)); bytes >= regs {
		t.Errorf("a proved hang allocates %d bytes per run, a snapshot's worth (a warp's registers are %d)", bytes, regs)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
