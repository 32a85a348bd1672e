package workloads

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
)

// all returns every workload (evaluation + profiling, deduplicated).
func all() []Workload {
	seen := map[string]bool{}
	var out []Workload
	for _, w := range append(Evaluation(), Profiling()...) {
		if !seen[w.Name()] {
			seen[w.Name()] = true
			out = append(out, w)
		}
	}
	return out
}

// TestFootprintCoversAllAccesses runs every workload on a device sized to
// exactly its declared footprint: a fault-free run must never touch memory
// outside it. Injection campaigns size the allocation from Footprint, so
// an under-declared footprint would turn legitimate accesses into bogus
// DUEs.
func TestFootprintCoversAllAccesses(t *testing.T) {
	for _, w := range all() {
		job := w.Build(rand.New(rand.NewSource(31)))
		cfg := gpu.DefaultConfig()
		cfg.GlobalMemWords = job.Footprint()
		dev := gpu.NewDevice(cfg)
		rr, err := job.Run(dev)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if rr.Hung() {
			t.Errorf("%s: trapped %v (%s) on exact-footprint device: footprint under-declared",
				w.Name(), rr.Trap, rr.TrapInfo)
		}
	}
}

// TestFootprintIsTight verifies Footprint does not wildly over-allocate:
// it must not exceed 4x the initial image + output span (a loose but
// meaningful bound; over-allocation would re-hide bad-address DUEs).
func TestFootprintIsTight(t *testing.T) {
	for _, w := range all() {
		job := w.Build(rand.New(rand.NewSource(32)))
		base := len(job.Init)
		if end := job.OutputOff + job.OutputLen; end > base {
			base = end
		}
		if job.Footprint() > 4*base {
			t.Errorf("%s: footprint %d > 4x base %d", w.Name(), job.Footprint(), base)
		}
	}
}

// TestDifferentSeedsChangeData guards against accidentally constant
// workloads (which would make campaign EPRs input-independent artifacts).
func TestDifferentSeedsChangeData(t *testing.T) {
	for _, w := range all() {
		j1 := w.Build(rand.New(rand.NewSource(1)))
		j2 := w.Build(rand.New(rand.NewSource(2)))
		if len(j1.Init) != len(j2.Init) {
			continue // size may legitimately be seed-independent; data matters
		}
		same := true
		for i := range j1.Init {
			if j1.Init[i] != j2.Init[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: identical init data for different seeds", w.Name())
		}
	}
}

// TestGoldenOutputsNonDegenerate: a workload whose output region is all
// zeros (or all one value) would mask most injections artificially.
func TestGoldenOutputsNonDegenerate(t *testing.T) {
	for _, w := range all() {
		job := w.Build(rand.New(rand.NewSource(33)))
		dev := gpu.NewDevice(gpu.DefaultConfig())
		rr, err := job.Run(dev)
		if err != nil || rr.Hung() {
			t.Fatalf("%s: %v %v", w.Name(), err, rr)
		}
		distinct := map[uint32]bool{}
		for _, v := range rr.Output {
			distinct[v] = true
		}
		if len(distinct) < 3 {
			t.Errorf("%s: output region has only %d distinct values", w.Name(), len(distinct))
		}
	}
}

// TestKernelsStayWithinRegisterBudget disassembles every program and
// checks no instruction names a register outside the architectural budget
// (other than RZ).
func TestKernelsStayWithinRegisterBudget(t *testing.T) {
	for _, w := range all() {
		job := w.Build(rand.New(rand.NewSource(34)))
		for _, k := range job.Kernels {
			for i := 0; i < k.Prog.Len(); i++ {
				if in := isa.Decode(k.Prog.Code[i]); !in.ValidRegs() {
					t.Errorf("%s/%s: instruction %d uses invalid registers: %v",
						w.Name(), k.Prog.Name, i, in)
				}
			}
		}
	}
}

// TestSharedMemoryCodesDeclareShared guards the Rodinia-fidelity property
// the IMD analysis rests on: gemm, nw and lud stage data through shared
// memory; vectoradd, gaussian, bfs and cfd do not.
func TestSharedMemoryCodesDeclareShared(t *testing.T) {
	usesShared := func(w Workload) bool {
		job := w.Build(rand.New(rand.NewSource(40)))
		for _, k := range job.Kernels {
			if k.Cfg.SharedWords > 0 {
				return true
			}
		}
		return false
	}
	for _, w := range []Workload{GEMM{}, NW{}, LUD{}} {
		if !usesShared(w) {
			t.Errorf("%s must use shared memory (Rodinia does)", w.Name())
		}
	}
	for _, w := range []Workload{VectorAdd{}, Gaussian{}, BFS{}, CFD{}} {
		if usesShared(w) {
			t.Errorf("%s must not use shared memory (the paper: IMD fully masked there)", w.Name())
		}
	}
}
