package cnn

import (
	"math"
	"math/rand"

	"gpufaultsim/internal/workloads"
)

// randWeights draws n weights in [-scale, scale).
func randWeights(rng *rand.Rand, n int, scale float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = scale * (2*rng.Float32() - 1)
	}
	return out
}

// glyph renders a synthetic digit-like pattern (d in 0..9) on an s×s
// canvas: deterministic strokes standing in for MNIST inputs.
func glyph(d, s int) []float32 {
	img := make([]float32, s*s)
	set := func(y, x int, v float32) {
		if y >= 0 && y < s && x >= 0 && x < s {
			img[y*s+x] = v
		}
	}
	// Vertical and horizontal strokes varying with the digit.
	for i := 0; i < s; i++ {
		if d%2 == 0 {
			set(i, (d/2+2)%s, 1)
		}
		if d%3 != 0 {
			set((d+3)%s, i, 0.8)
		}
		set(i, i*(d+1)%s, 0.6)
	}
	return img
}

// LeNet is the paper's LeNet workload: a small convolutional digit
// classifier (conv-pool-conv-pool-FC) whose convolutions run as tiled
// matrix multiplications on the simulator.
type LeNet struct {
	Digit int // input glyph (default 3)
}

func (LeNet) Name() string     { return "lenet" }
func (LeNet) DataType() string { return "FP32" }
func (LeNet) Domain() string   { return "Deep Learning" }
func (LeNet) Suite() string    { return "Darknet" }

// lenet dimensions.
const (
	lnSize  = 14
	lnC1    = 4
	lnC2    = 8
	lnClass = 10
)

func (w LeNet) Build(rng *rand.Rand) *workloads.Job {
	b := newBuilder()
	inBase := b.dataF(glyph(w.Digit%10, lnSize))

	// conv1: 1 -> lnC1 channels, 3x3 same-padded, ReLU.
	w1 := randWeights(rng, lnC1*9, 0.5)
	c1 := b.Conv2D(inBase, 1, lnSize, lnSize, w1, lnC1, 3, 3)
	b1 := b.dataF(randWeights(rng, lnC1, 0.1))
	a1 := b.alloc(lnC1 * lnSize * lnSize)
	b.BiasAct(c1, b1, a1, lnC1, lnSize*lnSize, true)
	p1, h1, w1dim := b.Pool2x2(a1, lnC1, lnSize, lnSize)

	// conv2: lnC1 -> lnC2 channels, 3x3 same-padded, ReLU.
	w2 := randWeights(rng, lnC2*lnC1*9, 0.3)
	c2 := b.Conv2D(p1, lnC1, h1, w1dim, w2, lnC2, 3, 3)
	b2 := b.dataF(randWeights(rng, lnC2, 0.1))
	a2 := b.alloc(lnC2 * h1 * w1dim)
	b.BiasAct(c2, b2, a2, lnC2, h1*w1dim, true)
	p2, h2, w2dim := b.Pool2x2(a2, lnC2, h1, w1dim)

	// FC: flatten -> 10 logits (matmul against a column vector).
	feat := lnC2 * h2 * w2dim
	wf := b.dataF(randWeights(rng, lnClass*feat, 0.2))
	logitsRaw := b.alloc(lnClass)
	b.Matmul(wf, p2, logitsRaw, lnClass, feat, 1)
	bf := b.dataF(randWeights(rng, lnClass, 0.1))
	logits := b.alloc(lnClass)
	b.BiasAct(logitsRaw, bf, logits, lnClass, 1, false)

	return b.Build(logits, lnClass)
}

// Top1 returns the argmax class of a logits region.
func Top1(out []uint32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, w := range out {
		if v := math.Float32frombits(w); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// CriticalSDCLeNet reports whether a corrupted logits vector changes the
// classification (the paper's "critical" CNN outcome, distinct from any
// bit-level SDC).
func CriticalSDCLeNet(golden, faulty []uint32) bool {
	return Top1(golden) != Top1(faulty)
}

// YOLOv3 is the paper's YOLOv3 workload, scaled to a tiny-YOLO-class
// detector: three convolutional stages ending in a 5-channel detection
// head (objectness + 4 box coordinates per cell).
type YOLOv3 struct {
	Scene int // synthetic scene selector
}

func (YOLOv3) Name() string     { return "yolov3" }
func (YOLOv3) DataType() string { return "FP32" }
func (YOLOv3) Domain() string   { return "Deep Learning" }
func (YOLOv3) Suite() string    { return "Darknet" }

const (
	yoSize = 16
	yoC1   = 4
	yoC2   = 8
	yoHead = 5
)

// scene renders a synthetic image with a few bright rectangles (stand-ins
// for VOC objects).
func scene(sel, s int) []float32 {
	img := make([]float32, s*s)
	boxes := [][4]int{
		{2 + sel%3, 2, 5, 4},
		{9, 8 + sel%2, 13, 12},
		{4, 10, 6, 14},
	}
	for _, bx := range boxes {
		for y := bx[0]; y < bx[2] && y < s; y++ {
			for x := bx[1]; x < bx[3] && x < s; x++ {
				img[y*s+x] = 0.9
			}
		}
	}
	return img
}

func (w YOLOv3) Build(rng *rand.Rand) *workloads.Job {
	b := newBuilder()
	inBase := b.dataF(scene(w.Scene, yoSize))

	w1 := randWeights(rng, yoC1*9, 0.5)
	c1 := b.Conv2D(inBase, 1, yoSize, yoSize, w1, yoC1, 3, 3)
	b1 := b.dataF(randWeights(rng, yoC1, 0.1))
	a1 := b.alloc(yoC1 * yoSize * yoSize)
	b.BiasAct(c1, b1, a1, yoC1, yoSize*yoSize, true)
	p1, h1, w1dim := b.Pool2x2(a1, yoC1, yoSize, yoSize)

	w2 := randWeights(rng, yoC2*yoC1*9, 0.3)
	c2 := b.Conv2D(p1, yoC1, h1, w1dim, w2, yoC2, 3, 3)
	b2 := b.dataF(randWeights(rng, yoC2, 0.1))
	a2 := b.alloc(yoC2 * h1 * w1dim)
	b.BiasAct(c2, b2, a2, yoC2, h1*w1dim, true)

	// Detection head: 1x1 convolution to 5 channels per cell.
	wh := randWeights(rng, yoHead*yoC2, 0.4)
	head := b.Conv2D(a2, yoC2, h1, w1dim, wh, yoHead, 1, 1)
	bh := b.dataF(randWeights(rng, yoHead, 0.1))
	det := b.alloc(yoHead * h1 * w1dim)
	b.BiasAct(head, bh, det, yoHead, h1*w1dim, false)

	return b.Build(det, yoHead*h1*w1dim)
}

// Detections returns the set of cells whose objectness channel exceeds the
// threshold in a yolov3 output region (channel 0 of yoHead).
func Detections(out []uint32, threshold float32) []int {
	cells := len(out) / yoHead
	var det []int
	for c := 0; c < cells; c++ {
		if math.Float32frombits(out[c]) > threshold {
			det = append(det, c)
		}
	}
	return det
}

// CriticalSDCYOLO reports whether a corrupted detection map changes the
// set of detected cells (misdetection), the paper's CNN failure criterion.
func CriticalSDCYOLO(golden, faulty []uint32) bool {
	g := Detections(golden, 0.25)
	f := Detections(faulty, 0.25)
	if len(g) != len(f) {
		return true
	}
	for i := range g {
		if g[i] != f[i] {
			return true
		}
	}
	return false
}

// Evaluation15 returns the paper's full 15-workload evaluation set
// (Table 1): the 13 general workloads plus LeNet and YOLOv3.
func Evaluation15() []workloads.Workload {
	return append(workloads.Evaluation(), LeNet{Digit: 3}, YOLOv3{Scene: 1})
}

// ByName returns the workload with the given Table-1 name from the union
// of Evaluation15 and the profiling set, or nil: workloads.ByName plus the
// two CNNs it cannot see.
func ByName(name string) workloads.Workload {
	if w := workloads.ByName(name); w != nil {
		return w
	}
	for _, w := range Evaluation15() {
		if w.Name() == name {
			return w
		}
	}
	return nil
}
