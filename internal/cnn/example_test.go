package cnn_test

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

// Example injects a few random errors of each model into LeNet inference
// and counts, besides bit-level SDCs and DUEs, the critical SDCs: those
// that change the predicted class (the paper's misdetection criterion).
func Example() {
	const injections = 4
	sess, err := perfi.NewSession(cnn.LeNet{Digit: 3}, 7, gpu.Config{})
	if err != nil {
		panic(err)
	}
	golden := sess.Golden
	fmt.Printf("golden class %d, %d warp-instructions\n", cnn.Top1(golden.Output), golden.Issues)

	rng := rand.New(rand.NewSource(7))
	for _, m := range []errmodel.Model{errmodel.IRA, errmodel.IIO, errmodel.IAW} {
		var sdc, due, critical int
		for range injections {
			d := errmodel.Random(m, rng, 8, sess.Device.PPBsPerSM)
			rr, outcome, err := sess.Run(d)
			if err != nil {
				panic(err)
			}
			switch outcome {
			case workloads.OutcomeDUE:
				due++
			case workloads.OutcomeSDC:
				sdc++
				if cnn.CriticalSDCLeNet(golden.Output, rr.Output) {
					critical++
				}
			}
		}
		fmt.Printf("%-4v of %d: %d SDC (%d critical), %d DUE\n", m, injections, sdc, critical, due)
	}
	// Output:
	// golden class 5, 14422 warp-instructions
	// IRA  of 4: 2 SDC (2 critical), 1 DUE
	// IIO  of 4: 1 SDC (0 critical), 0 DUE
	// IAW  of 4: 2 SDC (2 critical), 1 DUE
}
