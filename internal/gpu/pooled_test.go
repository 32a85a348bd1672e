package gpu_test

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

// evaluationJob builds the named evaluation workload's seed-1 job.
func evaluationJob(t *testing.T, name string) *workloads.Job {
	t.Helper()
	for _, w := range cnn.Evaluation15() {
		if w.Name() == name {
			return w.Build(rand.New(rand.NewSource(1)))
		}
	}
	t.Fatalf("no evaluation workload %q", name)
	return nil
}

// TestLaunchSteadyStateAllocs is the gate that keeps the issue path off the
// heap: once a device has run a job, running it again allocates what
// Job.Run itself does (the result and its output copy) and nothing per
// launch, per CTA or per issue — hook-free and hooked alike.
func TestLaunchSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"gemm", "gaussian"} {
		job := evaluationJob(t, name)
		switch name {
		case "gemm":
			if job.Kernels[0].Cfg.SharedWords == 0 {
				t.Fatal("gemm no longer uses shared memory; pick another job")
			}
		case "gaussian":
			if len(job.Kernels) < 2 {
				t.Fatal("gaussian no longer launches several kernels; pick another job")
			}
		}
		for _, hooked := range []bool{false, true} {
			dev := sizedDevice(job)
			if hooked {
				dev.AddHook(gpu.HookFuncs{})
			}
			warm, err := job.Run(dev)
			if err != nil || warm.Hung() {
				t.Fatalf("%s: warm-up run: %v %v", name, err, warm)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := job.Run(dev); err != nil {
					t.Fatal(err)
				}
			})
			const perRun = 2 // workloads.RunResult and its Output
			t.Logf("%s hooked=%v: %d launches, %d issues, %.0f allocs per run", name, hooked, len(job.Kernels), warm.Issues, allocs)
			if allocs > perRun {
				t.Errorf("%s hooked=%v: %.0f allocs per Job.Run on a warmed device (%d launches, %d issues), want <= %d",
					name, hooked, allocs, len(job.Kernels), warm.Issues, perRun)
			}
		}
	}
}

// TestPooledStateDoesNotLeakBetweenLaunches: warps, shared memory, decoded
// program and hook list are the device's to reuse, so whatever an injected
// run leaves in them must not reach the next. One device runs, for every
// evaluation job, a run that a hook traps mid-way, a run that hangs into
// the watchdog with the other warps parked or running (IAC detention), and
// then a clean run whose issue stream and output must be a fresh device's.
func TestPooledStateDoesNotLeakBetweenLaunches(t *testing.T) {
	type observed struct {
		issues, stream uint64
		output         []uint32
	}
	observe := func(dev *gpu.Device, job *workloads.Job) observed {
		h := fnv.New64a()
		dev.ClearHooks()
		dev.AddHook(issueStreamHook(h))
		rr, err := job.Run(dev)
		if err != nil || rr.Hung() {
			t.Fatalf("clean run failed: %v %v %s", err, rr.Trap, rr.TrapInfo)
		}
		return observed{rr.Issues, h.Sum64(), rr.Output}
	}
	inject := func(dev *gpu.Device, job *workloads.Job, h gpu.Hook) gpu.TrapKind {
		dev.ClearHooks()
		dev.AddHook(h)
		rr, err := job.Run(dev)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Trap
	}

	apps := cnn.Evaluation15()
	var jobs []*workloads.Job
	cfg := gpu.DefaultConfig()
	cfg.GlobalMemWords = 0
	for _, w := range apps {
		job := w.Build(rand.New(rand.NewSource(1)))
		cfg.GlobalMemWords = max(cfg.GlobalMemWords, job.Footprint()+64)
		jobs = append(jobs, job)
	}
	var fresh []observed
	var longest uint64
	for _, job := range jobs {
		fresh = append(fresh, observe(gpu.NewDevice(cfg), job))
		longest = max(longest, fresh[len(fresh)-1].issues)
	}
	cfg.MaxIssues = 2*longest + 1000 // the watchdog of the hung runs

	dev := gpu.NewDevice(cfg)
	for i, job := range jobs {
		name := apps[i].Name()
		lastWarp := (job.Kernels[0].Cfg.Block.Count()+isa.WarpSize-1)/isa.WarpSize - 1
		issues := uint64(0)
		if trap := inject(dev, job, gpu.HookFuncs{BeforeFn: func(ctx *gpu.InstrCtx) {
			if issues++; issues > fresh[i].issues/2 {
				ctx.RaiseTrap(gpu.TrapIllegalInstr, "trap mid-run")
			}
		}}); trap != gpu.TrapIllegalInstr {
			t.Fatalf("%s: a trap at issue %d ended %v, want %v", name, fresh[i].issues/2, trap, gpu.TrapIllegalInstr)
		}
		if trap := inject(dev, job, perfi.New(errmodel.Descriptor{
			Model: errmodel.IAC, ErrOperLoc: 1, Warps: []int{lastWarp}, Threads: ^uint32(0),
		}, nil)); trap != gpu.TrapWatchdog {
			t.Fatalf("%s: IAC detention of warp %d ended %v, want %v", name, lastWarp, trap, gpu.TrapWatchdog)
		}
		got := observe(dev, job)
		if got.issues != fresh[i].issues || got.stream != fresh[i].stream || !slices.Equal(got.output, fresh[i].output) {
			t.Errorf("%s: clean run after a trapped and a hung one: %d issues, stream %016x, output equal %v; a fresh device: %d issues, stream %016x",
				name, got.issues, got.stream, slices.Equal(got.output, fresh[i].output), fresh[i].issues, fresh[i].stream)
		}
	}
}

// TestHookMovedLanesAreRescheduled: W.PC is a hook's to write (rtlfi's
// stuck-PC-bit sites do), so the scheduler's summary of a converged warp
// must not outlive such a write. An After hook at pc 2 moves all lanes, or
// the odd ones, to the second half of the program.
func TestHookMovedLanesAreRescheduled(t *testing.T) {
	b := kasm.New("twohalves")
	b.MOVI(1, 1)
	b.MOVI(2, 2)
	b.S2R(0, isa.SRTidX)
	b.GST(0, 0, 1) // pc 3: global[tid] = 1
	b.EXIT()
	b.GST(0, 64, 2) // pc 5: global[64+tid] = 2
	b.EXIT()
	prog := b.MustBuild()
	for _, moved := range []uint32{^uint32(0), 0xAAAAAAAA, 1 << 31} {
		dev := gpu.NewDevice(gpu.DefaultConfig())
		dev.AddHook(gpu.HookFuncs{AfterFn: func(ctx *gpu.InstrCtx) {
			if ctx.PC == 2 {
				gpu.ForLanes(moved, func(lane int) { ctx.W.PC[lane] = 5 })
			}
		}})
		res, err := dev.Launch(prog, gpu.LaunchConfig{Grid: gpu.Dim3{X: 1}, Block: gpu.Dim3{X: 64}})
		if err != nil || res.Hung() {
			t.Fatalf("moved %#x: %v %v", moved, err, res)
		}
		for tid := 0; tid < 64; tid++ {
			first, second := uint32(1), uint32(0)
			if moved&(1<<(tid%isa.WarpSize)) != 0 {
				first, second = 0, 2
			}
			if dev.Global[tid] != first || dev.Global[64+tid] != second {
				t.Fatalf("moved %#x: thread %d stored %d and %d, want %d and %d",
					moved, tid, dev.Global[tid], dev.Global[64+tid], first, second)
			}
		}
	}
}

// TestRegisterGarbageIsTheLaneMajorStream pins the register file's launch
// garbage value for value: one generator per warp, seeded by (warp, CTA,
// SM), drawn lane by lane and register by register within the lane,
// wherever the file keeps the words.
func TestRegisterGarbageIsTheLaneMajorStream(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 2
	dev := gpu.NewDevice(cfg)
	warps := 0
	dev.AddHook(gpu.HookFuncs{BeforeFn: func(ctx *gpu.InstrCtx) {
		if ctx.PC != 0 {
			return
		}
		warps++
		w := ctx.W
		x := uint64(w.IDInSM)<<40 ^ uint64(w.CTA.X)<<20 ^ uint64(w.CTA.Y)<<10 ^ uint64(w.SM)
		for lane := 0; lane < isa.WarpSize; lane++ {
			for r := 0; r < isa.RegsPerThread; r++ {
				x = x*6364136223846793005 + 1442695040888963407
				if got := w.Reg(lane, uint8(r)); got != uint32(x>>33) {
					t.Fatalf("CTA %v warp %d lane %d R%d = %#x, want %#x", w.CTA, w.IDInSM, lane, r, got, uint32(x>>33))
				}
			}
		}
	}})
	b := kasm.New("probe")
	b.Op1(isa.OpNOP, 0, 0)
	b.EXIT()
	for launch := 0; launch < 2; launch++ { // the second launch finds the warps used
		if _, err := dev.Launch(b.MustBuild(), gpu.LaunchConfig{Grid: gpu.Dim3{X: 3, Y: 2}, Block: gpu.Dim3{X: 70}}); err != nil {
			t.Fatal(err)
		}
	}
	if warps != 2*6*3 {
		t.Fatalf("checked %d warps, want %d", warps, 2*6*3)
	}
}

// TestSharedMemoryIsZeroedPerCTA: the shared segment is one buffer reused
// by every CTA of every launch, and each CTA must find it zeroed.
func TestSharedMemoryIsZeroedPerCTA(t *testing.T) {
	b := kasm.New("dirty")
	b.S2R(0, isa.SRTidX)
	b.S2R(1, isa.SRCtaidX)
	b.MOVI(2, 32)
	b.Op3(isa.OpIMAD, 3, 1, 2, 0) // R3 = ctaid*32 + tid
	b.LDS(4, 0, 0)
	b.GST(3, 0, 4) // global[R3] = shared[tid], before this CTA writes it
	b.MOVI(5, 77)
	b.STS(0, 0, 5)
	b.EXIT()
	dev := gpu.NewDevice(gpu.DefaultConfig())
	for launch := 0; launch < 2; launch++ {
		for i := range dev.Global[:64] {
			dev.Global[i] = 0xdead
		}
		res, err := dev.Launch(b.MustBuild(), gpu.LaunchConfig{Grid: gpu.Dim3{X: 2}, Block: gpu.Dim3{X: 32}, SharedWords: 32})
		if err != nil || res.Hung() {
			t.Fatalf("launch %d: %v %v", launch, err, res)
		}
		for i, v := range dev.Global[:64] {
			if v != 0 {
				t.Fatalf("launch %d: CTA %d thread %d read %#x from fresh shared memory", launch, i/32, i%32, v)
			}
		}
	}
}
