package perfi

import (
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

// TestHangProofMatchesWatchdog holds the hang proof to the watchdog over
// the software campaign of the repository benchmark's twolevel_paper15
// workload at seed 1: the 15 evaluation apps, every injectable model,
// 16 injections each. Every descriptor runs twice on its app's session:
// from scratch, with an extra hook that keeps the proof out, and as
// RunApp runs it. The outcomes must be the same, every proved hang must
// be a watchdog DUE from scratch, and every other run must be the
// from-scratch run issue for issue.
func TestHangProofMatchesWatchdog(t *testing.T) {
	if raceEnabled {
		t.Skip("2640 injections, twice: skipped under -race; make verify runs it without")
	}
	const (
		seed, injections = 1, 16
		// The benchmark's perfi.faulty_issues at seed 1
		// (benchmark/expected.json): its replay injects from scratch.
		scratchWant = 17234583
		// What this test pins for the proof.
		provedWant, simulatedWant = 220, 8460501
	)
	var scratch, simulated uint64
	runs, watchdogs, proved := 0, 0, 0
	for _, w := range cnn.Evaluation15() {
		sess, err := NewSession(w, seed, gpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, m := range errmodel.Injectable() {
			for i := 0; i < injections; i++ {
				d := errmodel.Random(m, rng, sess.MaxWarps, sess.Device.PPBsPerSM)
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
				if outcome != want {
					t.Errorf("%s %v: outcome %v with the proof, %v from scratch", w.Name(), d, outcome, want)
				}
				switch {
				case provedHang(got):
					proved++
					if ref.Trap != gpu.TrapWatchdog || got.Issues >= ref.Issues {
						t.Errorf("%s %v: proved a hang at issue %d, but from scratch: %v %s (%d issues)",
							w.Name(), d, got.Issues, ref.Trap, ref.TrapInfo, ref.Issues)
					}
				case got.Trap != ref.Trap || got.TrapInfo != ref.TrapInfo || got.Issues != ref.Issues ||
					!slices.Equal(got.Output, ref.Output):
					t.Errorf("%s %v: %v %q (%d issues) with the proof, %v %q (%d issues) from scratch",
						w.Name(), d, got.Trap, got.TrapInfo, got.Issues, ref.Trap, ref.TrapInfo, ref.Issues)
				}
			}
		}
	}
	t.Logf("%d runs, %d watchdog DUEs from scratch, %d proved; warp-issues: %d from scratch, %d simulated (%.1f%%)",
		runs, watchdogs, proved, scratch, simulated, 100*float64(simulated)/float64(scratch))
	if scratch != scratchWant {
		t.Errorf("from-scratch issues = %d, want the benchmark's %d", scratch, scratchWant)
	}
	if proved != provedWant || simulated != simulatedWant {
		t.Errorf("proved %d hangs in %d simulated issues, pinned %d in %d", proved, simulated, provedWant, simulatedWant)
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
