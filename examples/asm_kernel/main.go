// asm_kernel: write a kernel as SASS-like text, run it on the simulated
// GPU, inject a permanent scheduler error, and use the trace diff to watch
// the corruption propagate instruction by instruction.
package main

import (
	"fmt"
	"log"
	"math"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/kasm"
	"gpufaultsim/internal/microscope"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

// saxpy: y[i] = a*x[i] + y[i] for i < n.
// Params: 0=xBase 1=yBase 2=n 3=aBits.
const saxpySrc = `
	// global thread id
	S2R R0, SR_CTAID.X
	S2R R1, SR_NTID.X
	IMUL R0, R0, R1
	S2R R1, SR_TID.X
	IADD R0, R0, R1
	// bounds guard
	LDC R1, [RZ+2]
	ISETP.GE P0, R0, R1
	@P0 BRA done
	// y[i] = a*x[i] + y[i]
	LDC R2, [RZ+0]      // xBase
	LDC R3, [RZ+1]      // yBase
	LDC R4, [RZ+3]      // a (float bits)
	IADD R5, R2, R0
	GLD R6, [R5+0]      // x[i]
	IADD R7, R3, R0
	GLD R8, [R7+0]      // y[i]
	FFMA R8, R4, R6, R8
	GST [R7+0], R8
done:
	EXIT
`

func main() {
	log.SetFlags(0)
	prog, err := kasm.Parse("saxpy", saxpySrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assembled kernel:")
	fmt.Print(prog.Disassemble())

	const n = 128
	dev := gpu.NewDevice(gpu.DefaultConfig())
	for i := 0; i < n; i++ {
		dev.Global[i] = floatBits(float32(i))       // x
		dev.Global[n+i] = floatBits(float32(2 * i)) // y
	}
	lc := gpu.LaunchConfig{
		Grid:   gpu.Dim3{X: 2},
		Block:  gpu.Dim3{X: 64},
		Params: []uint32{0, n, n, floatBits(0.5)},
	}

	rec := &microscope.Recorder{}
	dev.AddHook(rec)
	res, err := dev.Launch(prog, lc)
	if err != nil || res.Hung() {
		log.Fatalf("golden launch failed: %v %v", err, res)
	}
	golden := dev.ReadGlobal(n, n)
	fmt.Printf("\ngolden: %d warp-instructions; y[3] = %v (want %v)\n",
		res.Issues, fromBits(golden[3]), 0.5*3+6)

	// Permanent IAT defect: lane 5 of warp 1 reads a wrong thread index
	// (tid ^ 4), so it redoes another thread's element and its own is
	// never updated — a silent data corruption. (A warp-wide IAW with a
	// bijective index flip would mask here: every element still gets
	// computed by *somebody*. Try it.)
	desc := errmodel.Descriptor{Model: errmodel.IAT, Warps: []int{1},
		Threads: 1 << 5, BitErrMask: 4}
	fdev := gpu.NewDevice(gpu.DefaultConfig())
	for i := 0; i < n; i++ {
		fdev.Global[i] = floatBits(float32(i))
		fdev.Global[n+i] = floatBits(float32(2 * i))
	}
	frec := &microscope.Recorder{}
	fdev.AddHook(perfi.New(desc, nil))
	fdev.AddHook(frec)
	fres, err := fdev.Launch(prog, lc)
	if err != nil {
		log.Fatal(err)
	}
	faulty := fdev.ReadGlobal(n, n)

	outcome := workloads.Classify(golden, &workloads.RunResult{
		Trap: fres.Trap, Output: faulty,
	})
	fmt.Printf("faulty (%v): outcome %v, corrupted elements %v\n\n",
		desc, outcome, workloads.CorruptedElements(golden, faulty))

	d := microscope.Diff(rec.Events, frec.Events)
	fmt.Print(microscope.Render(d, rec.Events, frec.Events, 3))
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func fromBits(u uint32) float32 { return math.Float32frombits(u) }
