//vetsim:instrumented

package perfi

import (
	"fmt"
	"math/rand"
	"slices"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/workloads"
)

var (
	telIssues = telemetry.Default().Counter("perfi_issues_simulated_total",
		"warp-instructions issued by the faulty runs of perfi sessions")
	telRunsSkipped = telemetry.Default().Counter("perfi_runs_skipped_total",
		"faulty runs answered from the golden run whole: no targeted warp issues an instruction the model can act on")
	telIssuesSkipped = telemetry.Default().Counter("perfi_issues_skipped_total",
		"golden warp-instructions faulty runs took from the golden run instead of simulating them")
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

	// launches is the golden activation table: what each launch of the
	// golden run started from, issued, and on which warp slots.
	launches []goldenLaunch
	faulty   *gpu.Device
	prover   hangProver
	// Bound once, so that a run allocates neither.
	atLaunch func(k int)
	watched  func(sm, ppb, slot int) bool
}

// goldenLaunch is one launch of the golden run.
type goldenLaunch struct {
	image  []uint32 // global memory at the launch's start; nil for launch 0's, Job.Init
	before uint64   // the golden issues of the launches before it
	issues uint64   // its own golden issues
	slots  []slotActivity
}

// slotActivity is what one warp slot issued in a launch: each PC it
// issued at, with the OR of the lanes scheduled there (InstrCtx.Mask) over
// the launch's CTAs.
type slotActivity struct {
	sm, ppb, slot int
	pcs           []pcLanes
}

type pcLanes struct{ pc, lanes uint32 }

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
	rec := &activationRecorder{dev: gdev, job: job}
	gdev.AddHook(rec)
	for _, h := range goldenHooks {
		gdev.AddHook(h)
	}
	golden, err := job.RunFrom(gdev, 0, nil, rec.launch)
	if err != nil {
		return nil, fmt.Errorf("perfi: golden run of %s: %w", w.Name(), err)
	}
	if golden.Hung() {
		return nil, fmt.Errorf("perfi: golden run of %s trapped: %v %s",
			w.Name(), golden.Trap, golden.TrapInfo)
	}
	rec.launch(len(job.Kernels))

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
	s := &Session{
		Job: job, Golden: golden, Device: dev,
		MaxWarps: min(maxWarps, dev.MaxWarpsPerSM),
		launches: rec.launches,
		faulty:   faulty,
		prover:   hangProver{dev: faulty},
	}
	s.atLaunch = s.startLaunch
	s.watched = func(sm, ppb, slot int) bool { return s.prover.inj.D.TargetsWarp(sm, ppb, slot) }
	return s, nil
}

// Run executes the job with descriptor d injected followed by the extra
// hooks, and classifies the run against the golden output.
//
// Without extra hooks, the run simulates only what the golden run cannot
// answer (DESIGN.md, "Injection session"). Its Issues count the issues
// simulated and its Skipped the golden issues taken instead: a descriptor
// whose targeted warps never issue an instruction the model can act on is
// the golden run, Masked with no issue simulated, and any other run starts
// at the first launch in which they do. A run that hangs may end before
// the watchdog does: once the launch comes back to a state it was in, the
// run is reported as the watchdog's DUE (TrapWatchdog, with a "hang
// proved" TrapInfo). The outcome is the one the watchdog would have given
// (DESIGN.md, "Hang proof").
func (s *Session) Run(d errmodel.Descriptor, extra ...gpu.Hook) (*workloads.RunResult, workloads.Outcome, error) {
	s.faulty.ClearHooks()
	inj := New(d, nil)
	// The shortcuts and the proof need hooks that carry no state from one
	// issue to the next: the injector and nothing else. An extra hook is
	// the caller's, and its run is simulated from scratch.
	var atLaunch func(int)
	k := 0
	if len(extra) == 0 {
		if k = s.firstEligible(&inj.D); k < 0 {
			telRunsSkipped.Inc()
			telIssuesSkipped.Add(int64(s.Golden.Issues))
			return &workloads.RunResult{Output: slices.Clone(s.Golden.Output), Skipped: s.Golden.Issues},
				workloads.OutcomeMasked, nil
		}
		s.prover.inj, s.prover.proved = inj, false
		s.faulty.AddHook(&s.prover)
		atLaunch = s.atLaunch
	} else {
		s.faulty.AddHook(inj)
		for _, h := range extra {
			s.faulty.AddHook(h)
		}
	}
	l := &s.launches[k]
	rr, err := s.Job.RunFrom(s.faulty, k, l.image, atLaunch)
	if err != nil {
		return nil, 0, err
	}
	rr.Skipped = l.before
	telIssues.Add(int64(rr.Issues))
	telIssuesSkipped.Add(int64(rr.Skipped))
	if len(extra) == 0 && s.prover.proved {
		telHangsProved.Inc()
	}
	return rr, workloads.Classify(s.Golden.Output, rr), nil
}

// firstEligible returns the first launch in which a warp slot that d
// targets issued, in the golden run, an instruction on lanes of
// d.Threads that d.Eligible accepts, or -1 if there is none. Until that
// issue, the injector cannot act (TestIneligibleIssuesAreUntouched), so
// the faulty run is the golden run.
func (s *Session) firstEligible(d *errmodel.Descriptor) int {
	for k := range s.launches {
		code := s.Job.Kernels[k].Prog.Code
		for _, sa := range s.launches[k].slots {
			if !d.TargetsWarp(sa.sm, sa.ppb, sa.slot) {
				continue
			}
			for _, p := range sa.pcs {
				if p.lanes&d.Threads != 0 && d.Eligible(isa.Decode(code[p.pc])) {
					return k
				}
			}
		}
	}
	return -1
}

// startLaunch readies the faulty device for launch k of a run without
// extra hooks: the proof starts past the launch's own golden issues, and
// until then only the targeted warps are dispatched to the prover, since
// on the others neither it nor the injector does anything.
func (s *Session) startLaunch(k int) {
	from := s.launches[k].issues
	s.prover.from, s.prover.next = from, from+1
	s.faulty.WatchOnly(s.watched, from)
}

// activationRecorder is the golden run's hook that fills the golden
// activation table; launch is its Job.RunFrom callback.
type activationRecorder struct {
	dev      *gpu.Device
	job      *workloads.Job
	launches []goldenLaunch
	// The running launch's program and warps per CTA, its lanes per (slot,
	// pc) at slot*len(code)+pc and each slot's sub-partition, where a slot
	// is SM*warps + IDInSM.
	code  []isa.Word
	warps int
	lanes []uint32
	ppb   []int
}

// Before implements gpu.Hook.
func (r *activationRecorder) Before(ctx *gpu.InstrCtx) {
	w := ctx.W
	slot := w.SM*r.warps + w.IDInSM
	r.lanes[slot*len(r.code)+int(ctx.PC)] |= ctx.Mask
	r.ppb[slot] = w.PPB
}

// After implements gpu.Hook.
func (r *activationRecorder) After(*gpu.InstrCtx) {}

// launch closes the running launch's entry, if any, and opens launch k's;
// k == len(Kernels) only closes.
func (r *activationRecorder) launch(k int) {
	if n := len(r.launches); n > 0 {
		r.close(&r.launches[n-1])
	}
	if k == len(r.job.Kernels) {
		return
	}
	l := goldenLaunch{}
	if n := len(r.launches); n > 0 {
		prev := &r.launches[n-1]
		l.before, l.image = prev.before+prev.issues, slices.Clone(r.dev.Global)
	}
	r.launches = append(r.launches, l)
	kern := &r.job.Kernels[k]
	r.code, r.warps = kern.Prog.Code, (kern.Cfg.Block.Count()+isa.WarpSize-1)/isa.WarpSize
	slots := r.dev.Cfg.NumSMs * r.warps
	r.lanes = slices.Grow(r.lanes[:0], slots*len(r.code))[:slots*len(r.code)]
	clear(r.lanes)
	r.ppb = slices.Grow(r.ppb[:0], slots)[:slots]
}

// close fills l from the launch just run: its issue count and the
// activity of each slot that issued, in one allocation for the slots and
// one for their PCs.
func (r *activationRecorder) close(l *goldenLaunch) {
	l.issues = r.dev.LaunchIssues()
	slots, pcs := 0, 0
	for slot := range r.ppb {
		n := 0
		for _, lanes := range r.slotLanes(slot) {
			if lanes != 0 {
				n++
			}
		}
		if n > 0 {
			slots, pcs = slots+1, pcs+n
		}
	}
	l.slots = make([]slotActivity, 0, slots)
	all := make([]pcLanes, 0, pcs)
	for slot := range r.ppb {
		start := len(all)
		for pc, lanes := range r.slotLanes(slot) {
			if lanes != 0 {
				all = append(all, pcLanes{uint32(pc), lanes})
			}
		}
		if len(all) > start {
			l.slots = append(l.slots, slotActivity{slot / r.warps, r.ppb[slot], slot % r.warps, all[start:len(all):len(all)]})
		}
	}
}

// slotLanes returns the running launch's lanes per pc of one slot.
func (r *activationRecorder) slotLanes(slot int) []uint32 {
	return r.lanes[slot*len(r.code) : (slot+1)*len(r.code)]
}

// hangProver is an injector with a hang proof behind it: after each of
// the injector's After calls, the launch's state is all that decides what
// it does next, and once that state recurs the launch is ended as a
// watchdog DUE. It is one hook rather than two to spare every issue a
// second hook dispatch.
//
// Session.startLaunch resets it at each launch's start to that launch's
// golden issue count (from): the proof starts when the launch has issued
// more, so a run that terminates pays a comparison per issue only for the
// issues it runs past its launch's golden count. It samples as Brent's
// cycle detection does: the state is captured again when the issues past
// from reach a power of two, and every issue in between is held to the
// last capture. A cycle of period c entered t issues past from is found
// before 2*max(t, c) + c of them.
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
	case n >= p.next:
		p.dev.Capture(&p.snap, ctx.W, ctx.PC)
		p.at, p.next = n, n+(n-p.from)
	case p.dev.Recurs(&p.snap, ctx.W, ctx.PC):
		p.proved = true
		ctx.RaiseTrap(gpu.TrapWatchdog, fmt.Sprintf("hang proved: the launch state of issue %d recurs", p.at))
	}
}
