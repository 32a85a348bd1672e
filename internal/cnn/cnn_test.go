package cnn

import (
	"math"
	"math/rand"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

func runNet(t *testing.T, w workloads.Workload, seed int64) (*workloads.Job, *workloads.RunResult) {
	t.Helper()
	job := w.Build(rand.New(rand.NewSource(seed)))
	dev := gpu.NewDevice(gpu.DefaultConfig())
	rr, err := job.Run(dev)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	if rr.Hung() {
		t.Fatalf("%s trapped: %v (%s)", w.Name(), rr.Trap, rr.TrapInfo)
	}
	return job, rr
}

func TestLeNetMatchesHostReference(t *testing.T) {
	job, rr := runNet(t, LeNet{Digit: 3}, 1)
	for i := range job.Reference {
		if rr.Output[i] != job.Reference[i] {
			t.Fatalf("logit %d = %v, want %v", i,
				math.Float32frombits(rr.Output[i]),
				math.Float32frombits(job.Reference[i]))
		}
	}
	// The logits must be non-degenerate (not all equal).
	first := rr.Output[0]
	same := true
	for _, v := range rr.Output {
		if v != first {
			same = false
		}
	}
	if same {
		t.Fatal("degenerate logits")
	}
}

func TestYOLOMatchesHostReference(t *testing.T) {
	job, rr := runNet(t, YOLOv3{Scene: 1}, 2)
	bad := 0
	for i := range job.Reference {
		if rr.Output[i] != job.Reference[i] {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d detection-head words differ from host reference",
			bad, len(job.Reference))
	}
}

func TestTop1AndDetections(t *testing.T) {
	logits := make([]uint32, 10)
	for i := range logits {
		logits[i] = math.Float32bits(float32(i) * 0.1)
	}
	logits[4] = math.Float32bits(5.0)
	if Top1(logits) != 4 {
		t.Errorf("Top1 = %d, want 4", Top1(logits))
	}
	faulty := append([]uint32{}, logits...)
	faulty[7] = math.Float32bits(9.0)
	if !CriticalSDCLeNet(logits, faulty) {
		t.Error("classification flip not detected")
	}
	faulty[7] = logits[7]
	faulty[2] = math.Float32bits(0.21) // perturbed but not top-1
	if CriticalSDCLeNet(logits, faulty) {
		t.Error("non-critical perturbation flagged critical")
	}

	out := make([]uint32, yoHead*4)
	out[1] = math.Float32bits(0.9)
	det := Detections(out, 0.25)
	if len(det) != 1 || det[0] != 1 {
		t.Errorf("Detections = %v", det)
	}
	fa := append([]uint32{}, out...)
	fa[2] = math.Float32bits(0.8)
	if !CriticalSDCYOLO(out, fa) {
		t.Error("misdetection not flagged")
	}
}

func TestDifferentDigitsGiveDifferentLogits(t *testing.T) {
	_, r3 := runNet(t, LeNet{Digit: 3}, 5)
	_, r7 := runNet(t, LeNet{Digit: 7}, 5)
	same := true
	for i := range r3.Output {
		if r3.Output[i] != r7.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("digit 3 and 7 produce identical logits")
	}
}

func TestEvaluation15HasPaperOrder(t *testing.T) {
	ws := Evaluation15()
	if len(ws) != 15 {
		t.Fatalf("Evaluation15 has %d workloads, want 15", len(ws))
	}
	want := []string{"vectoradd", "lava", "mxm", "gemm", "hotspot", "gaussian",
		"bfs", "lud", "accl", "nw", "cfd", "quicksort", "mergesort",
		"lenet", "yolov3"}
	for i, w := range ws {
		if w.Name() != want[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name(), want[i])
		}
	}
}

// TestByNameCoversTable1AndProfiling: every evaluation app, the CNNs
// included, and every profiling code resolves by name; nothing else does.
func TestByNameCoversTable1AndProfiling(t *testing.T) {
	for _, w := range append(Evaluation15(), workloads.Profiling()...) {
		if got := ByName(w.Name()); got == nil || got.Name() != w.Name() {
			t.Errorf("ByName(%q) = %v", w.Name(), got)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName invented a workload")
	}
}

func TestLeNetUnderInjection(t *testing.T) {
	// A quick end-to-end check that the CNN workloads work inside perfi
	// campaigns (the paper's headline experiment on DNNs).
	res, err := perfi.RunApp(LeNet{Digit: 3}, perfi.Config{
		Injections: 6, Seed: 11,
		Models: []errmodel.Model{errmodel.IAT, errmodel.IOC, errmodel.IMD},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tl := range res.ByModel {
		total += tl.Total()
	}
	if total != 18 {
		t.Fatalf("campaign ran %d injections, want 18", total)
	}
	// IOC on a compute-heavy CNN should essentially never be masked.
	ioc := res.ByModel[errmodel.IOC]
	if ioc.Masked == ioc.Total() {
		t.Error("IOC fully masked on lenet (implausible for a CNN)")
	}
}
