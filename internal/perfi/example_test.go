package perfi_test

import (
	"fmt"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

// Example injects one permanent Incorrect-Active-Thread error into the
// vectoradd workload and classifies the outcome — the library's core loop.
// The session owns the injection policy: device memory sized to the job,
// a golden run that must not trap, and a tight watchdog on faulty runs.
func Example() {
	sess, err := perfi.NewSession(workloads.VectorAdd{}, 42, gpu.Config{})
	if err != nil {
		panic(err)
	}
	desc := errmodel.Descriptor{
		Model:      errmodel.IAT,
		Warps:      []int{0},
		Threads:    1 << 5,
		BitErrMask: 0x2,
	}
	faulty, outcome, err := sess.Run(desc)
	if err != nil {
		panic(err)
	}

	fmt.Println(outcome)
	fmt.Println(workloads.CorruptedElements(sess.Golden.Output, faulty.Output))
	// Output:
	// SDC
	// [5 69 133 197]
}

// ExampleRunApp runs a small campaign for two error models.
func ExampleRunApp() {
	res, err := perfi.RunApp(workloads.VectorAdd{}, perfi.Config{
		Injections: 8,
		Seed:       7,
		Models:     []errmodel.Model{errmodel.IVRA, errmodel.IMD},
	})
	if err != nil {
		panic(err)
	}
	ivra := res.ByModel[errmodel.IVRA]
	imd := res.ByModel[errmodel.IMD]
	// IVRA descriptors that target a source-operand position the kernel
	// never uses stay silent; the rest trap.
	fmt.Printf("IVRA: %d DUE of %d\n", ivra.DUE, ivra.Total())
	fmt.Printf("IMD fully masked: %v (vectoradd uses no shared memory)\n",
		imd.Masked == imd.Total())
	// Output:
	// IVRA: 5 DUE of 8
	// IMD fully masked: true (vectoradd uses no shared memory)
}
