// Package profiler implements step 1 of the methodology: hardware unit
// profiling. It runs the representative workloads on the functional GPU
// simulator with an instrumentation hook that observes every dynamic
// instruction and extracts the exciting patterns (unit input vectors) that
// drive the gate-level fault injection campaigns, together with the
// utilization statistics behind Table 3.
package profiler

import (
	"fmt"
	"math/rand"
	"sort"

	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// Profile is the result of profiling a set of workloads.
type Profile struct {
	// Patterns are the deduplicated exciting patterns, in first-seen order.
	Patterns []units.Pattern
	// Counts is each pattern's dynamic execution frequency.
	Counts map[units.Pattern]uint64
	// DynInstrs is the total number of dynamic warp-instructions profiled.
	DynInstrs uint64
	// UnitIssues counts issues per functional-unit class across all
	// profiled workloads.
	UnitIssues [6]uint64
	// PerWorkload records each workload's dynamic instruction count.
	PerWorkload map[string]uint64
}

// Utilization returns the fraction of dynamic instructions that stimulate
// the given functional-unit class. The parallelism-management units (WSC,
// fetch, decoder) are exercised by every instruction, i.e. utilization 1.
func (p *Profile) Utilization(u isa.UnitClass) float64 {
	if p.DynInstrs == 0 {
		return 0
	}
	return float64(p.UnitIssues[u]) / float64(p.DynInstrs)
}

// capture is the profiling hook.
type capture struct {
	prof    *Profile
	limit   int
	barrier uint32
}

func (c *capture) Before(ctx *gpu.InstrCtx) {}

func (c *capture) After(ctx *gpu.InstrCtx) {
	w := ctx.W
	in := ctx.Instr
	p := units.Pattern{
		Word:       ctx.Raw,
		PC:         uint32(ctx.PC),
		WarpID:     uint32(w.IDInSM) % units.NumWarpSlots,
		ActiveMask: ctx.ExecMask,
		CTAID:      uint32(w.CTA.X+w.CTA.Y<<2) & 0xF,
	}
	if in.Op == isa.OpBRA && ctx.ExecMask != 0 {
		p.BranchTaken = true
		p.BranchTarget = in.Imm
	}
	if in.Op == isa.OpBAR {
		c.barrier |= 1 << p.WarpID
	} else {
		c.barrier &^= 1 << p.WarpID
	}
	// Warp-state view: all warp slots of the CTA valid, the issuing warp
	// ready, barrier bits as tracked.
	p.WarpValid = uint32(uint64(1)<<units.NumWarpSlots - 1)
	p.WarpReady = p.WarpValid &^ c.barrier
	p.WarpBarrier = c.barrier

	c.prof.DynInstrs++
	c.prof.UnitIssues[in.Op.Unit()]++
	if _, seen := c.prof.Counts[p]; !seen && len(c.prof.Patterns) < c.limit {
		c.prof.Patterns = append(c.prof.Patterns, p)
	}
	c.prof.Counts[p]++
}

// Config controls profiling.
type Config struct {
	Seed int64
	// MaxPatterns caps the deduplicated pattern list (0 = 4096). The cap
	// bounds gate-level campaign time; patterns beyond it still count
	// toward utilization statistics.
	MaxPatterns int
	Device      gpu.Config
}

// Collect profiles the given workloads and returns the merged profile.
func Collect(ws []workloads.Workload, cfg Config) (*Profile, error) {
	if cfg.MaxPatterns == 0 {
		cfg.MaxPatterns = 4096
	}
	if cfg.Device.NumSMs == 0 {
		cfg.Device = gpu.DefaultConfig()
	}
	prof := &Profile{
		Counts:      make(map[units.Pattern]uint64),
		PerWorkload: make(map[string]uint64),
	}
	dev := gpu.NewDevice(cfg.Device)
	for _, w := range ws {
		job := w.Build(rand.New(rand.NewSource(cfg.Seed)))
		before := prof.DynInstrs
		cap := &capture{prof: prof, limit: cfg.MaxPatterns}
		dev.ClearHooks()
		dev.AddHook(cap)
		rr, err := job.Run(dev)
		if err != nil {
			return nil, fmt.Errorf("profiler: %s: %w", w.Name(), err)
		}
		if rr.Hung() {
			return nil, fmt.Errorf("profiler: %s trapped: %v", w.Name(), rr.Trap)
		}
		prof.PerWorkload[w.Name()] = prof.DynInstrs - before
	}
	dev.ClearHooks()
	return prof, nil
}

// TopPatterns returns up to n patterns ordered by descending dynamic
// frequency (ties broken by first-seen order, which the stable sort of
// the first-seen list keeps), for campaigns that trade pattern coverage
// for runtime. It ranks only the patterns the profile kept: Collect's
// MaxPatterns caps the distinct patterns it records at the first ones
// seen.
func (p *Profile) TopPatterns(n int) []units.Pattern {
	out := append([]units.Pattern{}, p.Patterns...)
	sort.SliceStable(out, func(a, b int) bool {
		return p.Counts[out[a]] > p.Counts[out[b]]
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
