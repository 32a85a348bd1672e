package gpu_test

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/workloads"
)

// stuckResultBus is a user-defined permanent error model: bit Bit of every
// FP32 result written on PPB 0 is stuck at 1. It implements gpu.Hook
// directly, the same interface the built-in error models use.
type stuckResultBus struct{ Bit int }

func (h *stuckResultBus) Before(ctx *gpu.InstrCtx) {}

func (h *stuckResultBus) After(ctx *gpu.InstrCtx) {
	in := ctx.Instr
	if ctx.W.PPB != 0 || in.Op.Unit() != isa.UnitFP32 || !in.Op.WritesReg() {
		return
	}
	gpu.ForLanes(ctx.ExecMask, func(lane int) {
		ctx.W.SetReg(lane, in.Rd, ctx.W.Reg(lane, in.Rd)|1<<h.Bit)
	})
}

// Example_customHook extends the simulator with an error model of its own
// and evaluates it against GEMM: a stuck exponent bit corrupts all 256
// output elements, a stuck sign bit spares some of them.
func Example_customHook() {
	job := workloads.GEMM{}.Build(rand.New(rand.NewSource(3)))
	golden, err := job.Run(gpu.NewDevice(gpu.DefaultConfig()))
	if err != nil {
		panic(err)
	}

	for _, bit := range []int{23, 31} {
		dev := gpu.NewDevice(gpu.DefaultConfig())
		dev.AddHook(&stuckResultBus{Bit: bit})
		rr, err := job.Run(dev)
		if err != nil {
			panic(err)
		}
		fmt.Printf("bit %2d: %v, %d corrupted elements\n", bit,
			workloads.Classify(golden.Output, rr),
			len(workloads.CorruptedElements(golden.Output, rr.Output)))
	}
	// Output:
	// bit 23: SDC, 256 corrupted elements
	// bit 31: SDC, 215 corrupted elements
}
