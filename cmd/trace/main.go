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
	"io"
	"log"
	"math"
	"os"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/microscope"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam. A descriptor that can
// hit nothing (a warp slot the SM does not have, an operand position no
// instruction has, a lane or bit mask wider than a warp's 32 lanes) is an
// error, not a run reported as Masked, and so is an operand location the
// model does not tell apart (it would run as another location).
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	app := fs.String("app", "vectoradd", "workload name (Table 1)")
	model := fs.String("model", "IAT", "error model to inject")
	warp := fs.Int("warp", 0, "target warp slot")
	lanes := fs.Uint64("lanes", 0xFFFFFFFF, "target lane mask")
	mask := fs.Uint64("mask", 1, "bitErrMask")
	loc := fs.Int("loc", 0, "errOperLoc: 0-3 for IRA/IVRA, 0-1 for IAC/IAL/IMD, 0 otherwise")
	seed := fs.Int64("seed", 1, "workload seed")
	context := fs.Int("context", 4, "trace context lines around the divergence")
	if err := fs.Parse(args); err != nil {
		return err
	}

	wl := cnn.ByName(*app)
	if wl == nil {
		return fmt.Errorf("unknown app %q", *app)
	}
	m, err := errmodel.ParseModel(*model)
	if err != nil {
		return err
	}
	switch maxWarps := gpu.DefaultConfig().MaxWarpsPerSM; {
	case *warp < 0 || *warp >= maxWarps:
		return fmt.Errorf("-warp %d outside [0,%d)", *warp, maxWarps)
	case *loc < 0 || *loc >= m.Locs():
		return fmt.Errorf("-loc %d outside [0,%d) for %v", *loc, m.Locs(), m)
	case *context < 0:
		return fmt.Errorf("-context %d is negative", *context)
	case *lanes > math.MaxUint32:
		return fmt.Errorf("-lanes %#x is wider than 32 lanes", *lanes)
	case *mask > math.MaxUint32:
		return fmt.Errorf("-mask %#x is wider than 32 bits", *mask)
	}
	desc := errmodel.Descriptor{
		Model: m, Warps: []int{*warp}, Threads: uint32(*lanes),
		BitErrMask: uint32(*mask), ErrOperLoc: *loc,
	}

	// Inject through the campaign's session, so this run gets a campaign's
	// memory sizing and watchdog and the outcome a campaign would count.
	goldenRec, faultyRec := &microscope.Recorder{}, &microscope.Recorder{}
	sess, err := perfi.NewSession(wl, *seed, gpu.Config{}, goldenRec)
	if err != nil {
		return err
	}
	frr, outcome, err := sess.Run(desc, faultyRec)
	if err != nil {
		return err
	}
	golden, faulty := goldenRec.Events, faultyRec.Events

	fmt.Fprintf(w, "app=%s descriptor: %v\n", wl.Name(), desc)
	fmt.Fprintf(w, "outcome: %v", outcome)
	if frr.Hung() {
		fmt.Fprintf(w, " (%v: %s)", frr.Trap, frr.TrapInfo)
	}
	fmt.Fprintln(w)

	d := microscope.Diff(golden, faulty)
	fmt.Fprint(w, microscope.Render(d, golden, faulty, *context))
	compared, maskDiffs, flips := microscope.MaskDriftStats(golden, faulty)
	fmt.Fprintf(w, "mask drift: %d/%d issues differ, %d lane flips total\n",
		maskDiffs, compared, flips)
	if d.Diverged() {
		fmt.Fprintln(w, "(control flow diverged: a CFC-style detector would flag this run)")
	} else if outcome == workloads.OutcomeSDC {
		fmt.Fprintln(w, "(pure data corruption: invisible to control-flow checking)")
	}
	return nil
}
