package perfi

import (
	"math/rand"
	"slices"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
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

// loopApp is a test-only job of two launches. Launch 0 writes each
// thread's index to the output; launch 1 runs a loop only a faulty thread
// enters (one whose index reads 32 or more, or whose P0 a fault sets) and
// then rewrites the output. The loop keeps its whole state in predicates
// (state "pred": a 4-bit counter in P1..P4, 16 rounds) or in one
// global-memory word (state "mem": 32 rounds, the register it loads into
// cleared each round). Its registers, PCs and the other word kind repeat
// every round, so a hang proof that overlooked the word kind holding the
// count would end a terminating loop.
type loopApp struct{ state string }

func (a loopApp) Name() string   { return a.state + "loop" }
func (loopApp) DataType() string { return "INT32" }
func (loopApp) Domain() string   { return "test" }
func (loopApp) Suite() string    { return "test" }

func (a loopApp) Build(*rand.Rand) *workloads.Job {
	const threads, out = 32, 0
	const counter = out + threads // the mem loop's word, past the output
	cfg := gpu.LaunchConfig{Grid: gpu.Dim3{X: 1}, Block: gpu.Dim3{X: threads}}

	first := kasm.New(a.state + "loop.write")
	first.S2R(0, isa.SRTidX).GST(0, out, 0).EXIT()

	k := kasm.New(a.state + "loop.loop")
	k.S2R(0, isa.SRTidX).MOVI(1, threads)
	k.ISETP(isa.CmpGE, 0, 0, 1).PNot(0).BRA("done")
	switch a.state {
	case "pred":
		k.Label("loop")
		k.PSETP(isa.CmpEQ, 5, 1, 1).PSETP(isa.CmpNE, 1, 1, isa.PT) // carry = P1; P1 = !P1
		k.PSETP(isa.CmpEQ, 6, 2, 5).PSETP(isa.CmpNE, 2, 2, 5)
		k.PSETP(isa.CmpEQ, 5, 3, 6).PSETP(isa.CmpNE, 3, 3, 6)
		k.PSETP(isa.CmpEQ, 6, 4, 5).PSETP(isa.CmpNE, 4, 4, 5) // P6: the counter wraps
		k.PNot(6).BRA("loop")
	case "mem":
		k.MOVI(2, 1).MOVI(3, 32)
		k.Label("loop")
		k.GLD(4, isa.RZ, counter).IADD(4, 4, 2).GST(isa.RZ, counter, 4)
		k.ISETP(isa.CmpLT, 1, 4, 3).MOVI(4, 0)
		k.P(1).BRA("loop")
	}
	k.Label("done").GLD(1, 0, out).IADD(1, 1, 1).GST(0, out, 1).EXIT()
	return &workloads.Job{
		Kernels:   []workloads.Kernel{{Prog: first.MustBuild(), Cfg: cfg}, {Prog: k.MustBuild(), Cfg: cfg}},
		OutputOff: out, OutputLen: threads, MemWords: counter + 1,
	}
}

// fuzzApps are the applications the descriptor fuzzer injects into: the
// cheap apps, then the two loopApps.
var fuzzApps = func() []workloads.Workload {
	var ws []workloads.Workload
	for _, app := range cheapApps {
		ws = append(ws, cnn.ByName(app))
	}
	return append(ws, loopApp{"pred"}, loopApp{"mem"})
}()

// FuzzSessionMatchesPlainRun holds Session.Run, its shortcuts included,
// to the run it stands for: Job.Run on a fresh device whose only hook is
// New(d, nil). Both must give the same outcome, trap kind and output, and,
// unless the session proved a hang, which it must do before the watchdog
// fires, the same trap text and as many issues, counting the ones the
// session skipped. This is the oracle for every shortcut that skips
// issues of an injection run.
func FuzzSessionMatchesPlainRun(f *testing.F) {
	sessions := make([]*Session, len(fuzzApps))
	for i, app := range fuzzApps {
		var err error
		if sessions[i], err = NewSession(app, 1, gpu.Config{}); err != nil {
			f.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	seed := func(app uint8, d errmodel.Descriptor) {
		var warps uint64
		for _, w := range d.Warps {
			warps |= 1 << w
		}
		f.Add(app, uint8(d.Model), warps, d.Threads, d.BitErrMask, uint8(d.ErrOperLoc), uint8(d.ReplOp))
	}
	for i, m := range errmodel.All() {
		app := uint8(i % len(cheapApps))
		sess := sessions[app]
		seed(app, errmodel.Random(m, rng, sess.MaxWarps, sess.Device.PPBsPerSM))
		// Edge shapes: every slot, all lanes, mask 0, the model's last
		// location; then no lanes at all.
		f.Add(app, uint8(m), ^uint64(0), uint32(0xFFFFFFFF), uint32(0), uint8(m.Locs()-1), uint8(isa.OpISUB))
		f.Add(app, uint8(m), ^uint64(0), uint32(0), uint32(1), uint8(0), uint8(isa.OpIADD))
	}
	// Into the loops: WV flips P0 (mask 0), IAT sets bit 5 of the index.
	for app := len(cheapApps); app < len(fuzzApps); app++ {
		seed(uint8(app), errmodel.Descriptor{Model: errmodel.WV, Warps: []int{0}, Threads: 1})
		seed(uint8(app), errmodel.Descriptor{Model: errmodel.IAT, Warps: []int{0}, Threads: 0xF0, BitErrMask: 32})
	}
	f.Fuzz(func(t *testing.T, app, model uint8, warps uint64, threads, mask uint32, loc, repl uint8) {
		i := int(app) % len(fuzzApps)
		name, sess := fuzzApps[i].Name(), sessions[i]
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
			if got.Skipped+got.Issues >= want.Issues {
				t.Fatalf("%s %v: hang proved at issue %d+%d, the watchdog fires at %d", name, d,
					got.Skipped, got.Issues, want.Issues)
			}
		} else if got.Skipped+got.Issues != want.Issues || got.TrapInfo != want.TrapInfo {
			t.Fatalf("%s %v: session %d+%d issues (%q), plain run %d (%q)", name, d,
				got.Skipped, got.Issues, got.TrapInfo, want.Issues, want.TrapInfo)
		}
	})
}
