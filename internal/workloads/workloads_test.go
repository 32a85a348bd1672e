package workloads

import (
	"math"
	"math/rand"
	"testing"

	"gpufaultsim/internal/gpu"
)

// runAndVerify executes a workload's job fault-free and checks the output
// region against the host-computed reference bit-for-bit.
func runAndVerify(t *testing.T, w Workload, seed int64) *RunResult {
	t.Helper()
	job := w.Build(rand.New(rand.NewSource(seed)))
	if job.Reference != nil && len(job.Reference) != job.OutputLen {
		t.Fatalf("%s: reference length %d != output length %d",
			w.Name(), len(job.Reference), job.OutputLen)
	}
	dev := gpu.NewDevice(gpu.DefaultConfig())
	rr, err := job.Run(dev)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	if rr.Hung() {
		t.Fatalf("%s: unexpected DUE: %v (%s)", w.Name(), rr.Trap, rr.TrapInfo)
	}
	if job.Reference == nil {
		return rr
	}
	bad := 0
	for i := range job.Reference {
		if rr.Output[i] != job.Reference[i] {
			if bad < 5 {
				t.Errorf("%s: out[%d] = %#x (%v), want %#x (%v)", w.Name(), i,
					rr.Output[i], math.Float32frombits(rr.Output[i]),
					job.Reference[i], math.Float32frombits(job.Reference[i]))
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d output words differ from host reference",
			w.Name(), bad, len(job.Reference))
	}
	return rr
}

func TestVectorAddWorkload(t *testing.T) { runAndVerify(t, VectorAdd{}, 1) }
func TestMxMWorkload(t *testing.T)       { runAndVerify(t, MxM{}, 2) }
func TestGEMMWorkload(t *testing.T)      { runAndVerify(t, GEMM{}, 3) }
func TestGaussianWorkload(t *testing.T)  { runAndVerify(t, Gaussian{}, 4) }
func TestLUDWorkload(t *testing.T)       { runAndVerify(t, LUD{}, 5) }

func TestWorkloadsAreSeedDeterministic(t *testing.T) {
	for _, w := range []Workload{VectorAdd{}, MxM{}, GEMM{}} {
		j1 := w.Build(rand.New(rand.NewSource(7)))
		j2 := w.Build(rand.New(rand.NewSource(7)))
		if len(j1.Init) != len(j2.Init) {
			t.Fatalf("%s: nondeterministic init size", w.Name())
		}
		for i := range j1.Init {
			if j1.Init[i] != j2.Init[i] {
				t.Fatalf("%s: nondeterministic init at %d", w.Name(), i)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	golden := []uint32{1, 2, 3}
	if got := Classify(golden, &RunResult{Output: []uint32{1, 2, 3}}); got != OutcomeMasked {
		t.Errorf("identical output = %v, want Masked", got)
	}
	if got := Classify(golden, &RunResult{Output: []uint32{1, 9, 3}}); got != OutcomeSDC {
		t.Errorf("corrupted output = %v, want SDC", got)
	}
	if got := Classify(golden, &RunResult{Trap: gpu.TrapWatchdog}); got != OutcomeDUE {
		t.Errorf("trap = %v, want DUE", got)
	}
}

func TestCorruptedElements(t *testing.T) {
	golden := []uint32{1, 2, 3, 4}
	out := []uint32{1, 9, 3, 8}
	got := CorruptedElements(golden, out)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("CorruptedElements = %v, want [1 3]", got)
	}
}

func TestHotspotWorkload(t *testing.T)   { runAndVerify(t, Hotspot{}, 6) }
func TestCFDWorkload(t *testing.T)       { runAndVerify(t, CFD{}, 7) }
func TestNWWorkload(t *testing.T)        { runAndVerify(t, NW{}, 8) }
func TestBFSWorkload(t *testing.T)       { runAndVerify(t, BFS{}, 9) }
func TestACCLWorkload(t *testing.T)      { runAndVerify(t, ACCL{}, 10) }
func TestMergeSortWorkload(t *testing.T) { runAndVerify(t, MergeSort{}, 11) }
func TestQuickSortWorkload(t *testing.T) { runAndVerify(t, QuickSort{}, 12) }
func TestLavaWorkload(t *testing.T)      { runAndVerify(t, Lava{}, 13) }

func TestReductionWorkload(t *testing.T)  { runAndVerify(t, Reduction{}, 14) }
func TestFFTWorkload(t *testing.T)        { runAndVerify(t, FFT{}, 15) }
func TestGrayFilterWorkload(t *testing.T) { runAndVerify(t, GrayFilter{}, 16) }
func TestSobelWorkload(t *testing.T)      { runAndVerify(t, Sobel{}, 17) }
func TestSVMulWorkload(t *testing.T)      { runAndVerify(t, SVMul{}, 18) }
func TestNNWorkload(t *testing.T)         { runAndVerify(t, NN{}, 19) }
func TestScan3DWorkload(t *testing.T)     { runAndVerify(t, Scan3D{}, 20) }
func TestTransposeWorkload(t *testing.T)  { runAndVerify(t, Transpose{}, 21) }
func TestBackpropWorkload(t *testing.T)   { runAndVerify(t, Backprop{}, 22) }

func TestJobRunRejectsOversizedOutputRegion(t *testing.T) {
	job := VectorAdd{}.Build(rand.New(rand.NewSource(50)))
	job.OutputOff = 1 << 30
	cfg := gpu.DefaultConfig()
	dev := gpu.NewDevice(cfg)
	if _, err := job.Run(dev); err == nil {
		t.Fatal("oversized output region accepted")
	}
}

func TestOutcomeStrings(t *testing.T) {
	if OutcomeMasked.String() != "Masked" || OutcomeSDC.String() != "SDC" ||
		OutcomeDUE.String() != "DUE" {
		t.Error("outcome names wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome must render")
	}
}

func TestByName(t *testing.T) {
	if w := ByName("gemm"); w == nil || w.Name() != "gemm" {
		t.Error("ByName(gemm) failed")
	}
	if w := ByName("fft"); w == nil {
		t.Error("ByName must cover profiling workloads")
	}
	if ByName("nope") != nil {
		t.Error("ByName invented a workload")
	}
}
