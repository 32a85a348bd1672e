package perfi

import (
	"fmt"
	"math/rand"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
)

// cheapApps are applications whose golden runs take milliseconds: the
// eligibility property test and the descriptor fuzzer inject into them.
var cheapApps = []string{"vectoradd", "cfd", "mxm", "hotspot", "gaussian", "bfs"}

// eligibilityProbe wraps an injector and checks the property an exact
// skip of ineligible issues rests on: on an issue of a targeted warp whose
// fetched instruction Descriptor.Eligible rejects, the injector counts no
// activation and leaves ctx.Instr as fetched.
type eligibilityProbe struct {
	inj      *Injector
	fetched  isa.Instruction
	acts     uint64
	rejected bool // the current issue is on a targeted warp and ineligible

	rejections int    // issues the property was checked on
	violation  string // the first violation, if any
}

func (p *eligibilityProbe) Before(ctx *gpu.InstrCtx) {
	w, d := ctx.W, &p.inj.D
	p.rejected = d.TargetsWarp(w.SM, w.PPB, w.IDInSM) && !d.Eligible(ctx.Instr)
	p.fetched, p.acts = ctx.Instr, p.inj.Activations
	p.inj.Before(ctx)
	p.check(ctx, "Before")
}

func (p *eligibilityProbe) After(ctx *gpu.InstrCtx) {
	p.inj.After(ctx)
	p.check(ctx, "After")
	if p.rejected {
		p.rejections++
	}
}

func (p *eligibilityProbe) check(ctx *gpu.InstrCtx, hook string) {
	if !p.rejected || p.violation != "" {
		return
	}
	if p.inj.Activations != p.acts || ctx.Instr != p.fetched {
		p.violation = fmt.Sprintf("%s of ineligible %v at pc %d: activations %d -> %d, instruction now %v",
			hook, p.fetched, ctx.PC, p.acts, p.inj.Activations, ctx.Instr)
	}
}

// TestIneligibleIssuesAreUntouched runs every injectable model on the
// cheap apps, with Random draws and with hand-written descriptors for
// every ErrOperLoc the model tells apart, and holds each issue of a
// targeted warp that Eligible rejects to eligibilityProbe's property.
func TestIneligibleIssuesAreUntouched(t *testing.T) {
	const draws = 16
	rejections := 0
	for _, app := range cheapApps {
		sess, err := NewSession(cnn.ByName(app), 1, gpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		allSlots := make([]int, sess.MaxWarps)
		for w := range allSlots {
			allSlots[w] = w
		}
		rng := rand.New(rand.NewSource(1))
		for _, m := range errmodel.Injectable() {
			var ds []errmodel.Descriptor
			for range draws {
				ds = append(ds, errmodel.Random(m, rng, sess.MaxWarps, sess.Device.PPBsPerSM))
			}
			for loc := range m.Locs() {
				ds = append(ds, errmodel.Descriptor{Model: m, Warps: allSlots, Threads: 0xFFFFFFFF,
					BitErrMask: 1, ErrOperLoc: loc, ReplOp: isa.OpISUB})
			}
			for _, d := range ds {
				probe := &eligibilityProbe{inj: New(d, nil)}
				sess.faulty.ClearHooks()
				sess.faulty.AddHook(probe)
				if _, err := sess.Job.Run(sess.faulty); err != nil {
					t.Fatal(err)
				}
				if probe.violation != "" {
					t.Errorf("%s %v: %s", app, d, probe.violation)
				}
				rejections += probe.rejections
			}
		}
	}
	if rejections == 0 {
		t.Fatal("no targeted issue was ineligible: the property was never checked")
	}
	t.Logf("%d ineligible issues on targeted warps checked", rejections)
}
