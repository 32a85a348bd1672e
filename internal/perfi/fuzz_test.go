package perfi

import (
	"math/rand"
	"slices"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/workloads"
)

// fuzzDescriptor clamps the fuzzer's fields to a valid descriptor on the
// device's one SM and sub-partition: warps is a bit set of warp slots.
func fuzzDescriptor(sess *Session, model uint8, warps uint64, threads, mask uint32, loc, repl uint8) errmodel.Descriptor {
	m := errmodel.Model(int(model) % errmodel.Count)
	d := errmodel.Descriptor{Model: m, Threads: threads, BitErrMask: mask,
		ErrOperLoc: int(loc) % m.Locs(), ReplOp: isa.Opcode(int(repl) % isa.Count())}
	for w := range sess.Device.MaxWarpsPerSM {
		if warps>>w&1 != 0 {
			d.Warps = append(d.Warps, w)
		}
	}
	return d
}

// FuzzSessionMatchesPlainRun holds Session.Run, the hang proof included,
// to the run it stands for: Job.Run on a fresh device whose only hook is
// New(d, nil). Both must give the same outcome, trap kind and output, and
// the same issues and trap text unless the session proved a hang, which
// it must do before the watchdog fires. This is the oracle for every
// shortcut that skips issues of an injection run.
func FuzzSessionMatchesPlainRun(f *testing.F) {
	sessions := make([]*Session, len(cheapApps))
	for i, app := range cheapApps {
		var err error
		if sessions[i], err = NewSession(cnn.ByName(app), 1, gpu.Config{}); err != nil {
			f.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i, m := range errmodel.All() {
		app := uint8(i % len(cheapApps))
		sess := sessions[app]
		d := errmodel.Random(m, rng, sess.MaxWarps, sess.Device.PPBsPerSM)
		var warps uint64
		for _, w := range d.Warps {
			warps |= 1 << w
		}
		f.Add(app, uint8(m), warps, d.Threads, d.BitErrMask, uint8(d.ErrOperLoc), uint8(d.ReplOp))
		// Edge shapes: every slot, all lanes, mask 0, the model's last
		// location; then no lanes at all.
		f.Add(app, uint8(m), ^uint64(0), uint32(0xFFFFFFFF), uint32(0), uint8(m.Locs()-1), uint8(isa.OpISUB))
		f.Add(app, uint8(m), ^uint64(0), uint32(0), uint32(1), uint8(0), uint8(isa.OpIADD))
	}
	f.Fuzz(func(t *testing.T, app, model uint8, warps uint64, threads, mask uint32, loc, repl uint8) {
		i := int(app) % len(cheapApps)
		name, sess := cheapApps[i], sessions[i]
		d := fuzzDescriptor(sess, model, warps, threads, mask, loc, repl)

		got, outcome, err := sess.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		dev := gpu.NewDevice(sess.faulty.Cfg)
		dev.AddHook(New(d, nil))
		want, err := sess.Job.Run(dev)
		if err != nil {
			t.Fatal(err)
		}
		if wantOutcome := workloads.Classify(sess.Golden.Output, want); outcome != wantOutcome ||
			got.Trap != want.Trap || !slices.Equal(got.Output, want.Output) {
			t.Fatalf("%s %v: session %v %v %s, plain run %v %v %s", name, d,
				outcome, got.Trap, got.TrapInfo, wantOutcome, want.Trap, want.TrapInfo)
		}
		if provedHang(got) {
			if got.Issues >= want.Issues {
				t.Fatalf("%s %v: hang proved at issue %d, the watchdog fires at %d", name, d, got.Issues, want.Issues)
			}
		} else if got.Issues != want.Issues || got.TrapInfo != want.TrapInfo {
			t.Fatalf("%s %v: session %d issues (%q), plain run %d (%q)", name, d,
				got.Issues, got.TrapInfo, want.Issues, want.TrapInfo)
		}
	})
}
