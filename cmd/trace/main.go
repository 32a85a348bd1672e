// Command trace records golden and faulty instruction traces for one
// workload under one error descriptor and prints the first control-flow
// divergence plus mask-drift statistics — a propagation microscope for
// studying how a permanent error unfolds.
//
//	trace -app gemm -model IAT -warp 0 -lanes 0x3 -mask 0x2
package main

import (
	"flag"
	"fmt"
	"log"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/trace"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")
	app := flag.String("app", "vectoradd", "workload name (Table 1)")
	model := flag.String("model", "IAT", "error model to inject")
	warp := flag.Int("warp", 0, "target warp slot")
	lanes := flag.Uint64("lanes", 0xFFFFFFFF, "target lane mask")
	mask := flag.Uint64("mask", 1, "bitErrMask")
	loc := flag.Int("loc", 0, "errOperLoc")
	seed := flag.Int64("seed", 1, "workload seed")
	context := flag.Int("context", 4, "trace context lines around the divergence")
	flag.Parse()

	w := cnn.ByName(*app)
	if w == nil {
		log.Fatalf("unknown app %q", *app)
	}
	m, err := errmodel.ParseModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	desc := errmodel.Descriptor{
		Model: m, Warps: []int{*warp}, Threads: uint32(*lanes),
		BitErrMask: uint32(*mask), ErrOperLoc: *loc,
	}

	// Inject through the campaign's session, so this run gets a campaign's
	// memory sizing and watchdog and the outcome a campaign would count.
	goldenRec, faultyRec := &trace.Recorder{}, &trace.Recorder{}
	sess, err := perfi.NewSession(w, *seed, gpu.Config{}, goldenRec)
	if err != nil {
		log.Fatal(err)
	}
	frr, outcome, err := sess.Run(desc, faultyRec)
	if err != nil {
		log.Fatal(err)
	}
	golden, faulty := goldenRec.Events, faultyRec.Events

	fmt.Printf("app=%s descriptor: %v\n", w.Name(), desc)
	fmt.Printf("outcome: %v", outcome)
	if frr.Hung() {
		fmt.Printf(" (%v: %s)", frr.Trap, frr.TrapInfo)
	}
	fmt.Println()

	d := trace.Diff(golden, faulty)
	fmt.Print(trace.Render(d, golden, faulty, *context))
	compared, maskDiffs, flips := trace.MaskDriftStats(golden, faulty)
	fmt.Printf("mask drift: %d/%d issues differ, %d lane flips total\n",
		maskDiffs, compared, flips)
	if d.Diverged() {
		fmt.Println("(control flow diverged: a CFC-style detector would flag this run)")
	} else if outcome == workloads.OutcomeSDC {
		fmt.Println("(pure data corruption: invisible to control-flow checking)")
	}
}
