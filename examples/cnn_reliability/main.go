// cnn_reliability: evaluate how permanent faults in the GPU's parallelism
// management units affect a convolutional network — the paper's headline
// use case. For each error model, injects a batch of errors into LeNet
// inference and reports bit-level SDCs, DUEs, and *critical* SDCs (the
// classification actually flips).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)
	const injections = 20
	seed := int64(7)

	sess, err := perfi.NewSession(cnn.LeNet{Digit: 3}, seed, gpu.Config{})
	if err != nil {
		log.Fatalf("golden inference failed: %v", err)
	}
	golden := sess.Golden
	fmt.Printf("LeNet golden inference: class=%d (%d warp-instructions)\n\n",
		cnn.Top1(golden.Output), golden.Issues)

	fmt.Printf("%-6s %8s %8s %8s %12s\n", "model", "masked", "SDC", "DUE", "criticalSDC")
	rng := rand.New(rand.NewSource(seed))
	for _, m := range errmodel.Injectable() {
		var masked, sdc, due, critical int
		for i := 0; i < injections; i++ {
			d := errmodel.Random(m, rng, 8, sess.Device.PPBsPerSM)
			rr, outcome, err := sess.Run(d)
			if err != nil {
				log.Fatal(err)
			}
			switch outcome {
			case workloads.OutcomeMasked:
				masked++
			case workloads.OutcomeDUE:
				due++
			case workloads.OutcomeSDC:
				sdc++
				if cnn.CriticalSDCLeNet(golden.Output, rr.Output) {
					critical++
				}
			}
		}
		fmt.Printf("%-6v %7d%% %7d%% %7d%% %11d%%\n", m,
			100*masked/injections, 100*sdc/injections,
			100*due/injections, 100*critical/injections)
	}
	fmt.Println("\ncriticalSDC = SDCs that change the predicted class " +
		"(the paper's misdetection criterion)")
}
