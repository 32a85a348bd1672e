//vetsim:instrumented

package perfi

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/workloads"
)

var (
	telIssues = telemetry.Default().Counter("perfi_issues_simulated_total",
		"warp-instructions issued by the faulty runs of perfi sessions")
	telHangsProved = telemetry.Default().Counter("perfi_hangs_proved_total",
		"faulty runs ended as a watchdog DUE by a hang proof instead of the watchdog")
)

// Session is the injection policy for one application, stated once: how
// the job is built, how device memory is sized, what a valid golden run
// is, how tight the faulty runs' watchdog is, and how one injection is
// run and classified. Campaigns (RunApp), the mitigation study and
// cmd/trace all inject through it.
type Session struct {
	Job    *workloads.Job
	Golden *workloads.RunResult
	// Device is the golden device's configuration, memory sized to the job.
	Device gpu.Config
	// MaxWarps is the largest number of warps any kernel of the job keeps
	// resident, so descriptors target warp slots the application actually
	// maps work onto (as physical injections on a busy GPU do).
	MaxWarps int

	faulty *gpu.Device
	prover hangProver
}

// NewSession builds the workload's job from seed and runs it fault-free
// on a device configured by dev (zero value = gpu.DefaultConfig), with
// goldenHooks observing that run. A golden run that traps is an error.
func NewSession(w workloads.Workload, seed int64, dev gpu.Config, goldenHooks ...gpu.Hook) (*Session, error) {
	if dev.NumSMs == 0 {
		dev = gpu.DefaultConfig()
	}
	job := w.Build(rand.New(rand.NewSource(seed)))

	// Size the simulated allocation to the job's footprint (plus a small
	// guard band), as a real launch would: a corrupted address then traps
	// instead of silently landing in never-allocated memory.
	dev.GlobalMemWords = job.Footprint() + 64

	gdev := gpu.NewDevice(dev)
	for _, h := range goldenHooks {
		gdev.AddHook(h)
	}
	golden, err := job.Run(gdev)
	if err != nil {
		return nil, fmt.Errorf("perfi: golden run of %s: %w", w.Name(), err)
	}
	if golden.Hung() {
		return nil, fmt.Errorf("perfi: golden run of %s trapped: %v %s",
			w.Name(), golden.Trap, golden.TrapInfo)
	}

	// Tight watchdog for the faulty runs: a corrupted loop that runs 8x
	// past the golden issue count is a hang (DUE), and detecting it fast
	// keeps campaign time linear.
	faultyCfg := dev
	faultyCfg.MaxIssues = golden.Issues*8 + 10000
	faulty := gpu.NewDevice(faultyCfg)

	maxWarps := 1
	for _, k := range job.Kernels {
		maxWarps = max(maxWarps, (k.Cfg.Block.Count()+31)/32)
	}
	return &Session{
		Job: job, Golden: golden, Device: dev,
		MaxWarps: min(maxWarps, dev.MaxWarpsPerSM),
		faulty:   faulty,
		prover:   hangProver{dev: faulty, from: golden.Issues},
	}, nil
}

// Run executes the job with descriptor d injected followed by the extra
// hooks, and classifies the run against the golden output.
//
// Without extra hooks, a run that hangs may end before the watchdog does:
// once the launch comes back to a state it was in, the run is reported as
// the watchdog's DUE (TrapWatchdog, with a "hang proved" TrapInfo), and its
// Issues count only the issues simulated. The outcome is the one the
// watchdog would have given (DESIGN.md, "Hang proof").
func (s *Session) Run(d errmodel.Descriptor, extra ...gpu.Hook) (*workloads.RunResult, workloads.Outcome, error) {
	s.faulty.ClearHooks()
	inj := New(d, nil)
	// The proof needs hooks that carry no state from one issue to the
	// next: the injector and nothing else. An extra hook is the caller's.
	prove := len(extra) == 0
	if prove {
		s.prover.inj, s.prover.proved = inj, false
		s.faulty.AddHook(&s.prover)
	} else {
		s.faulty.AddHook(inj)
	}
	for _, h := range extra {
		s.faulty.AddHook(h)
	}
	rr, err := s.Job.Run(s.faulty)
	if err != nil {
		return nil, 0, err
	}
	telIssues.Add(int64(rr.Issues))
	if prove && s.prover.proved {
		telHangsProved.Inc()
	}
	return rr, workloads.Classify(s.Golden.Output, rr), nil
}

// hangProver is an injector with a hang proof behind it: after each of
// the injector's After calls, the launch's state is all that decides what
// it does next, and once that state recurs the launch is ended as a
// watchdog DUE. It is one hook rather than two to spare every issue a
// second hook dispatch.
//
// The proof starts when the launch has issued more than the whole golden
// run (from), so a run that terminates pays a comparison per issue only
// for the issues it runs past that. It samples as Brent's cycle detection
// does: the state is captured again when the issues past from reach a
// power of two, and every issue in between is held to the last capture.
// A cycle of period c entered t issues past from is found before
// 2*max(t, c) + c of them.
type hangProver struct {
	inj    *Injector
	dev    *gpu.Device
	from   uint64
	next   uint64 // the launch issue count of the next capture
	at     uint64 // the launch issue count of the last capture
	snap   gpu.LaunchState
	proved bool
}

// Before implements gpu.Hook.
func (p *hangProver) Before(ctx *gpu.InstrCtx) { p.inj.Before(ctx) }

// After implements gpu.Hook.
func (p *hangProver) After(ctx *gpu.InstrCtx) {
	p.inj.After(ctx)
	switch n := p.dev.LaunchIssues(); {
	case n <= p.from:
		p.next = p.from + 1 // a launch of its own: nothing captured in it yet
	case n >= p.next:
		p.dev.Capture(&p.snap, ctx.W, ctx.PC)
		p.at, p.next = n, n+(n-p.from)
	case p.dev.Recurs(&p.snap, ctx.W, ctx.PC):
		p.proved = true
		ctx.RaiseTrap(gpu.TrapWatchdog, fmt.Sprintf("hang proved: the launch state of issue %d recurs", p.at))
	}
}
