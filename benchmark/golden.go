package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

// goldenInterp is the golden_interp workload: the 15 evaluation jobs,
// built once, each run passes times per repeat with workloads.Job.Run on a
// device with no hook registered, sized as perfi.RunApp sizes it, from one
// goroutine. One operation is one pass over the 15 jobs (a percentile over
// single runs would sit on the boundary between two apps); work is warp
// issues.
type goldenInterp struct{}

type goldenJob struct {
	name   string
	job    *workloads.Job
	dev    *gpu.Device
	golden *workloads.RunResult
}

type goldenInst struct {
	seed   int64
	passes int
	jobs   []goldenJob
	digest string

	passSec float64 // median seconds per pass over the 15 jobs, latest repeat
	issues  uint64  // warp issues of one pass
}

func buildJobs(seed int64) []goldenJob {
	var out []goldenJob
	for _, w := range cnn.Evaluation15() {
		out = append(out, goldenJob{name: w.Name(), job: w.Build(rand.New(rand.NewSource(seed)))})
	}
	return out
}

func newDevice(job *workloads.Job) *gpu.Device {
	cfg := gpu.DefaultConfig()
	cfg.GlobalMemWords = job.Footprint() + 64
	return gpu.NewDevice(cfg)
}

func (goldenInterp) setup(seed int64, sc scale, _ string) (instance, error) {
	i := &goldenInst{seed: seed, passes: pick(sc, 40, 2), jobs: buildJobs(seed)}
	type out struct {
		App    string
		Issues uint64
		Output string
	}
	var outs []out
	for k := range i.jobs {
		j := &i.jobs[k]
		j.dev = newDevice(j.job)
		// The first run is the warm-up and the reference for all others.
		rr, err := j.job.Run(j.dev)
		if err != nil || rr.Hung() {
			return nil, fmt.Errorf("golden run of %s failed: %v %v", j.name, err, rr)
		}
		if j.job.Reference != nil && !slices.Equal(rr.Output, j.job.Reference) {
			return nil, fmt.Errorf("golden run of %s differs from its host-computed reference", j.name)
		}
		j.golden = rr
		i.issues += rr.Issues
		d, err := artifact.Digest(rr.Output)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out{j.name, rr.Issues, d})
	}
	var err error
	i.digest, err = artifact.Digest(outs)
	return i, err
}

func (i *goldenInst) close() {}

func (i *goldenInst) repeat(tr *tracer) (repeatResult, error) {
	out := repeatResult{digest: i.digest, counters: map[string]int64{"issues_per_pass": int64(i.issues)}}
	root := tr.begin(0, "bench", "golden_interp")
	t0 := time.Now()
	for p := 0; p < i.passes; p++ {
		passStart, ok := time.Now(), true
		for k := range i.jobs {
			j := &i.jobs[k]
			sp := tr.begin(root, "gpu", "Job.Run:"+j.name)
			rr, err := j.job.Run(j.dev)
			tr.end(sp)
			if err != nil {
				return repeatResult{}, err
			}
			out.work += float64(rr.Issues)
			ok = ok && rr.Issues == j.golden.Issues && slices.Equal(rr.Output, j.golden.Output)
		}
		out.ops = append(out.ops, time.Since(passStart).Seconds())
		if !ok {
			out.failed++
		}
	}
	out.wall = time.Since(t0).Seconds()
	tr.end(root)
	i.passSec = median(out.ops)
	return out, nil
}

func (i *goldenInst) ledger(tr *tracer) (map[string]float64, error) {
	root := tr.begin(0, "bench", "golden_ledger")
	defer tr.end(root)
	// Small costs are taken as the median of a few samples of the whole
	// 15-job set.
	sample := func(layer, name string, n int, f func()) float64 {
		var ds []float64
		for k := 0; k < n; k++ {
			ds = append(ds, tr.timed(root, layer, name, f))
		}
		return median(ds)
	}
	m := map[string]float64{
		"gpu.issues":              float64(i.issues),
		"gpu.launch_nohook_s":     i.passSec,
		"gpu.ns_per_issue_nohook": i.passSec / float64(i.issues) * 1e9,
	}
	m["workloads.build_s"] = sample("workloads", "Workload.Build x15", 5, func() { buildJobs(i.seed) })
	m["gpu.new_device_s"] = sample("gpu", "gpu.NewDevice x15", 5, func() {
		for _, j := range i.jobs {
			newDevice(j.job)
		}
	})
	m["gpu.reset_s"] = sample("gpu", "ResetGlobal+WriteGlobal x15", 9, func() {
		for _, j := range i.jobs {
			j.dev.ResetGlobal()
			j.dev.WriteGlobal(0, j.job.Init)
		}
	})

	// The same pass with one hook that does nothing: what building an
	// InstrCtx and dispatching Before/After costs every hooked run.
	for _, j := range i.jobs {
		j.dev.AddHook(gpu.HookFuncs{})
	}
	var err error
	nullSec := sample("gpu", "Job.Run x15, null hook", max(3, i.passes/4), func() {
		for _, j := range i.jobs {
			rr, e := j.job.Run(j.dev)
			if e == nil && !slices.Equal(rr.Output, j.golden.Output) {
				e = fmt.Errorf("null-hook run of %s differs from the hook-free run", j.name)
			}
			if e != nil {
				err = e
			}
		}
	})
	for _, j := range i.jobs {
		j.dev.ClearHooks()
	}
	if err != nil {
		return nil, err
	}
	m["gpu.ns_per_issue_nullhook"] = nullSec / float64(i.issues) * 1e9
	m["gpu.hook_overhead_ratio"] = nullSec / i.passSec // base: hook-free pass
	return m, nil
}
