package gpu

import (
	"testing"

	"gpufaultsim/internal/kasm"
)

// brentHook runs the recurrence check the way a hang prover does: it
// captures the launch state at issues 1, 2, 4, 8, ... and holds every
// issue in between to the last capture.
type brentHook struct {
	dev      *Device
	snap     LaunchState
	at       uint64 // the issue of the last capture
	recurs   uint64 // the first issue found to recur, 0 if none
	recursTo uint64 // the issue of the capture it recurs to
}

func (h *brentHook) Before(*InstrCtx) {}

func (h *brentHook) After(ctx *InstrCtx) {
	n := h.dev.LaunchIssues()
	if n&(n-1) == 0 {
		h.dev.Capture(&h.snap, ctx.W, ctx.PC)
		h.at = n
		return
	}
	if h.recurs == 0 && h.dev.Recurs(&h.snap, ctx.W, ctx.PC) {
		h.recurs, h.recursTo = n, h.at
	}
}

func TestSelfBranchRecursOnNextIssue(t *testing.T) {
	b := kasm.New("spin")
	b.Label("spin").BRA("spin")
	b.EXIT()
	cfg := DefaultConfig()
	cfg.MaxIssues = 100
	d := NewDevice(cfg)
	var snap LaunchState
	var recurs []uint64
	d.AddHook(HookFuncs{AfterFn: func(ctx *InstrCtx) {
		if n := d.LaunchIssues(); n == 1 {
			d.Capture(&snap, ctx.W, ctx.PC)
		} else if d.Recurs(&snap, ctx.W, ctx.PC) {
			recurs = append(recurs, n)
		}
	}})
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}})
	if err != nil || res.Trap != TrapWatchdog {
		t.Fatalf("err=%v res=%v, want the watchdog", err, res)
	}
	if len(recurs) != int(cfg.MaxIssues)-1 || recurs[0] != 2 {
		t.Errorf("issues %v recur to issue 1, want every issue from 2 on", recurs)
	}
}

func TestCountingLoopNeverRecurs(t *testing.T) {
	// for R1 := 0; ; R1++ {}: every state differs in R1, and the launch
	// ends only in the watchdog.
	b := kasm.New("count")
	b.MOVI(1, 0)
	b.MOVI(2, 1)
	b.Label("loop")
	b.IADD(1, 1, 2)
	b.BRA("loop")
	b.EXIT()
	const n = 1 << 15
	cfg := DefaultConfig()
	cfg.MaxIssues = n
	d := NewDevice(cfg)
	h := &brentHook{dev: d}
	d.AddHook(h)
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 64}})
	if err != nil || res.Trap != TrapWatchdog {
		t.Fatalf("err=%v res=%v, want the watchdog", err, res)
	}
	if h.recurs != 0 {
		t.Errorf("issue %d recurs to issue %d in a counting loop", h.recurs, h.recursTo)
	}
}

// snapshotProbe runs fn in the After hook of the issue at pc in each CTA.
func snapshotProbe(t *testing.T, grid, shared int, pc int32, fn func(d *Device, ctx *InstrCtx)) {
	t.Helper()
	b := kasm.New("probe")
	b.MOVI(1, 7)
	b.MOVI(2, 3)
	b.STS(2, 0, 1) // shared[3] = 7
	b.GST(2, 0, 1) // global[3] = 7
	b.EXIT()
	d := NewDevice(DefaultConfig())
	d.AddHook(HookFuncs{AfterFn: func(ctx *InstrCtx) {
		if ctx.PC == pc && ctx.W.IDInSM == 0 {
			fn(d, ctx)
		}
	}})
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: grid}, Block: Dim3{X: 64}, SharedWords: shared})
	if err != nil || res.Hung() {
		t.Fatalf("err=%v res=%v", err, res)
	}
}

// TestRecursTellsCTAsApart: two CTAs whose warps are made identical differ
// only in their index, and that is enough.
func TestRecursTellsCTAsApart(t *testing.T) {
	var snap LaunchState
	ctas := 0
	snapshotProbe(t, 2, 16, 4, func(d *Device, ctx *InstrCtx) {
		for _, w := range d.st.warps {
			clear(w.Regs[:]) // the garbage fill differs between CTAs
		}
		if ctas++; ctas == 1 {
			d.Capture(&snap, ctx.W, ctx.PC)
			return
		}
		if d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Error("CTA 1 recurs to CTA 0's state")
		}
		cta := ctx.W.CTA
		for _, w := range d.st.warps {
			w.CTA = snap.cta
		}
		if !d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Error("CTA 1 under CTA 0's index does not recur: something else differs")
		}
		for _, w := range d.st.warps {
			w.CTA = cta
		}
	})
	if ctas != 2 {
		t.Fatalf("probed %d CTAs, want 2", ctas)
	}
}

// TestRecursSeesEveryWord: a state recurs to itself, and one changed word
// of shared or global memory, a register, a predicate, a barrier or exit
// mask, a lane's PC or the scheduler's cursor breaks the match, as does another launch.
func TestRecursSeesEveryWord(t *testing.T) {
	var snap LaunchState
	snapshotProbe(t, 1, 16, 4, func(d *Device, ctx *InstrCtx) {
		d.Capture(&snap, ctx.W, ctx.PC)
		if !d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Fatal("a state does not recur to itself")
		}
		if allocs := testing.AllocsPerRun(3, func() { d.Capture(&snap, ctx.W, ctx.PC) }); allocs != 0 {
			t.Errorf("a repeated capture allocates %.0f times, want 0", allocs)
		}
		w1 := d.st.warps[1]
		for _, c := range []struct {
			what string
			word *uint32
		}{
			{"shared", &ctx.Shared[3]},
			{"global", &d.Global[3]},
			{"register", &w1.Regs[len(w1.Regs)-1]},
			{"predicate", &w1.Preds[2]},
			{"barrier", &w1.Barrier},
			{"exited", &w1.Exited},
		} {
			*c.word ^= 1 << 9
			if d.Recurs(&snap, ctx.W, ctx.PC) {
				t.Errorf("a changed %s word still recurs", c.what)
			}
			*c.word ^= 1 << 9
		}
		w1.PC[31]++
		if d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Error("a changed lane PC still recurs")
		}
		w1.PC[31]--
		d.st.rr++
		if d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Error("a changed round-robin cursor still recurs")
		}
		d.st.rr--
		if d.Recurs(&snap, w1, ctx.PC) || d.Recurs(&snap, ctx.W, ctx.PC+1) {
			t.Error("another issuing warp or pc still recurs")
		}
		if !d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Fatal("the restored state does not recur")
		}
		d.st.seq++
		if d.Recurs(&snap, ctx.W, ctx.PC) {
			t.Error("a state of another launch recurs")
		}
		d.st.seq--
	})
}
