// Quickstart: run a workload on the simulated GPU, inject one permanent
// error, and classify the outcome — the minimal end-to-end use of the
// library's public pieces (gpu device, workloads, error models, injector).
package main

import (
	"fmt"
	"log"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// 1-2. Build a workload job (vectoradd: out[i] = a[i]+b[i], 256 elems)
	//      and run it fault-free. The session owns the injection policy:
	//      device memory sized to the job, a golden run that must not trap,
	//      and a tight watchdog on the faulty runs.
	sess, err := perfi.NewSession(workloads.VectorAdd{}, 42, gpu.Config{})
	if err != nil {
		log.Fatal(err)
	}
	golden := sess.Golden
	fmt.Printf("golden run: %d warp-instructions issued, trap=%v\n",
		golden.Issues, golden.Trap)

	// 3. Describe a permanent hardware error: an Incorrect Active Thread
	//    (IAT) defect on SM0/PPB0 that corrupts lane 5's thread index.
	desc := errmodel.Descriptor{
		Model:      errmodel.IAT,
		Warps:      []int{0},
		Threads:    1 << 5,
		BitErrMask: 0x2,
	}
	fmt.Printf("injecting: %v\n", desc)

	// 4-5. Faulty run with the injector hooked into the device, classified
	//      against the golden output: Masked, SDC or DUE.
	faulty, outcome, err := sess.Run(desc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outcome: %v\n", outcome)
	if outcome == workloads.OutcomeSDC {
		bad := workloads.CorruptedElements(golden.Output, faulty.Output)
		fmt.Printf("corrupted output elements: %v\n", bad)
	}
}
