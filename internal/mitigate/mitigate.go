// Package mitigate implements and evaluates the fault-detection
// countermeasures the paper proposes for permanent faults in the
// parallelism management units (Section 6.3): software control-flow
// checking, and smart-scheduling replication that re-executes work on a
// different sub-partition so a permanent fault cannot corrupt both copies.
//
// The evaluation measures, per error model, how many SDC outcomes each
// detector catches — quantifying the paper's claim that "control-flow-
// checking strategies combined with smart thread scheduling replication
// can be a potential countermeasure against permanent faults in the WSC".
package mitigate

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

// cfcHook accumulates a control-flow signature: a fold over the PC stream
// of every issued warp-instruction, the software analog of basic-block
// signature checking. Data corruptions that leave control flow intact do
// not change the signature — exactly the blind spot real CFC has.
type cfcHook struct {
	sig uint64
}

func (h *cfcHook) Before(ctx *gpu.InstrCtx) {}

func (h *cfcHook) After(ctx *gpu.InstrCtx) {
	h.sig = h.sig*1099511628211 ^ uint64(uint32(ctx.PC))
	h.sig = h.sig*1099511628211 ^ uint64(ctx.W.IDInSM)
}

// Detection is the per-model mitigation coverage.
type Detection struct {
	Model errmodel.Model

	Injections int
	SDCs       int // undetected-by-construction baseline outcomes
	DUEs       int // already detected by the machine

	CFC      int // SDCs caught by control-flow checking
	DWC      int // SDCs caught by spatial duplication-with-comparison
	Combined int // SDCs caught by either
}

// CFCCoverage returns the fraction of SDCs CFC catches.
func (d Detection) CFCCoverage() float64 { return frac(d.CFC, d.SDCs) }

// DWCCoverage returns the fraction of SDCs spatial replication catches.
func (d Detection) DWCCoverage() float64 { return frac(d.DWC, d.SDCs) }

// CombinedCoverage returns the fraction of SDCs either detector catches.
func (d Detection) CombinedCoverage() float64 { return frac(d.Combined, d.SDCs) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// shiftWarps returns the descriptor with its warp set displaced by one
// slot and the sub-partition toggled — the "smart scheduling" replica:
// the same work scheduled onto different physical resources, out of the
// permanent fault's reach (or into a different reach).
func shiftWarps(d errmodel.Descriptor, maxWarps, ppbs int) errmodel.Descriptor {
	out := d
	out.Warps = make([]int, len(d.Warps))
	if ppbs > 1 {
		out.PPB = (d.PPB + 1) % ppbs
	}
	for i, w := range d.Warps {
		out.Warps[i] = (w + ppbs) % max(maxWarps, 1)
	}
	return out
}

// Config parameterizes a mitigation-coverage campaign.
type Config struct {
	Injections int
	Seed       int64
	Models     []errmodel.Model
}

// Evaluate measures detector coverage for one application. For each
// injection it runs: the golden kernel (signature reference), the faulty
// kernel (outcome + signature), and the faulty kernel with the work
// re-scheduled one warp slot away (the replica). CFC detects when the
// control-flow signature deviates; DWC detects when the two replicas
// disagree on the output.
func Evaluate(w workloads.Workload, cfg Config) ([]Detection, error) {
	if cfg.Injections == 0 {
		cfg.Injections = 50
	}
	if len(cfg.Models) == 0 {
		cfg.Models = errmodel.Injectable()
	}
	// Golden run with the signature hook.
	gsig := &cfcHook{}
	sess, err := perfi.NewSession(w, cfg.Seed, gpu.Config{}, gsig)
	if err != nil {
		return nil, fmt.Errorf("mitigate: %w", err)
	}
	maxWarps, ppbs := sess.MaxWarps, sess.Device.PPBsPerSM

	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Detection
	for _, m := range cfg.Models {
		det := Detection{Model: m}
		for i := 0; i < cfg.Injections; i++ {
			d := errmodel.Random(m, rng, maxWarps, ppbs)
			det.Injections++

			// Faulty primary run (with CFC signature).
			fsig := &cfcHook{}
			rr, outcome, err := sess.Run(d, fsig)
			if err != nil {
				return nil, err
			}
			switch outcome {
			case workloads.OutcomeDUE:
				det.DUEs++
				continue
			case workloads.OutcomeMasked:
				continue
			}
			det.SDCs++

			cfcHit := fsig.sig != gsig.sig

			// Replica run: same fault, work displaced one slot.
			ds := shiftWarps(d, maxWarps, ppbs)
			rs, _, err := sess.Run(ds)
			if err != nil {
				return nil, err
			}
			dwcHit := rs.Hung() || !equal(rr.Output, rs.Output)

			if cfcHit {
				det.CFC++
			}
			if dwcHit {
				det.DWC++
			}
			if cfcHit || dwcHit {
				det.Combined++
			}
		}
		out = append(out, det)
	}
	return out, nil
}

func equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render formats the coverage table.
func Render(app string, dets []Detection) string {
	s := fmt.Sprintf("Mitigation coverage on %s (fraction of SDCs detected)\n", app)
	s += fmt.Sprintf("%-6s %6s %6s %8s %8s %9s\n",
		"model", "SDCs", "DUEs", "CFC", "DWC", "combined")
	for _, d := range dets {
		s += fmt.Sprintf("%-6v %6d %6d %7.0f%% %7.0f%% %8.0f%%\n",
			d.Model, d.SDCs, d.DUEs,
			100*d.CFCCoverage(), 100*d.DWCCoverage(), 100*d.CombinedCoverage())
	}
	return s
}
