package perfi

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

// Session is the injection policy for one application, stated once: how
// the job is built, how device memory is sized, what a valid golden run
// is, how tight the faulty runs' watchdog is, and how one injection is
// run and classified. Campaigns (RunApp), the mitigation study and the
// examples all inject through it.
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

	maxWarps := 1
	for _, k := range job.Kernels {
		maxWarps = max(maxWarps, (k.Cfg.Block.Count()+31)/32)
	}
	return &Session{
		Job: job, Golden: golden, Device: dev,
		MaxWarps: min(maxWarps, dev.MaxWarpsPerSM),
		faulty:   gpu.NewDevice(faultyCfg),
	}, nil
}

// Run executes the job with descriptor d injected followed by the extra
// hooks, and classifies the run against the golden output.
func (s *Session) Run(d errmodel.Descriptor, extra ...gpu.Hook) (*workloads.RunResult, workloads.Outcome, error) {
	s.faulty.ClearHooks()
	s.faulty.AddHook(New(d, nil))
	for _, h := range extra {
		s.faulty.AddHook(h)
	}
	rr, err := s.Job.Run(s.faulty)
	if err != nil {
		return nil, 0, err
	}
	return rr, workloads.Classify(s.Golden.Output, rr), nil
}
