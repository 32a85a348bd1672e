package gpu

import (
	"slices"
	"testing"
)

// TestWatchOnlyNarrowsDispatch: under WatchOnly, hooks see an issue iff
// its warp is watched or the launch has passed the quiet count, in CTAs
// built before and after that point; the issue stream and the memory are
// the unnarrowed run's; ClearHooks dispatches to every warp again.
func TestWatchOnlyNarrowsDispatch(t *testing.T) {
	type seen struct {
		n                 uint64
		sm, ppb, slot, pc int
		cta               Dim3
		after             bool // the issue's After saw it too
	}
	cfg := DefaultConfig()
	cfg.PPBsPerSM = 2
	d := NewDevice(cfg)
	var got []seen
	d.AddHook(HookFuncs{
		BeforeFn: func(ctx *InstrCtx) {
			w := ctx.W
			got = append(got, seen{n: d.LaunchIssues(), sm: w.SM, ppb: w.PPB, slot: w.IDInSM, pc: int(ctx.PC), cta: w.CTA})
		},
		AfterFn: func(ctx *InstrCtx) {
			if s := &got[len(got)-1]; s.n == d.LaunchIssues() {
				s.after = true
			}
		},
	})
	const n, block = 200, 96 // 3 CTAs of 3 warps
	all := launchVecAdd(t, d, n, block)
	ref, refMem := slices.Clone(got), slices.Clone(d.Global)
	if len(ref) != int(all.Issues) {
		t.Fatalf("unnarrowed: hooks saw %d of %d issues", len(ref), all.Issues)
	}

	watched := func(sm, ppb, slot int) bool { return slot == 1 }
	for _, quiet := range []uint64{0, 1, 40, 70, all.Issues - 1, all.Issues, 1 << 40} {
		got = got[:0]
		clear(d.Global)
		d.WatchOnly(watched, quiet)
		res := launchVecAdd(t, d, n, block)
		if res != all || !slices.Equal(d.Global, refMem) {
			t.Fatalf("quiet %d: %v, memory equal %v; unnarrowed %v", quiet, res, slices.Equal(d.Global, refMem), all)
		}
		var want []seen
		for _, s := range ref {
			if s.slot == 1 || s.n > quiet {
				want = append(want, s)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("quiet %d: hooks saw %d issues, want %d:\n got %v\nwant %v", quiet, len(got), len(want), got, want)
		}
	}

	d.ClearHooks()
	d.AddHook(HookFuncs{BeforeFn: func(*InstrCtx) { got = append(got, seen{}) }})
	got = got[:0]
	clear(d.Global)
	launchVecAdd(t, d, n, block)
	if len(got) != len(ref) {
		t.Errorf("after ClearHooks: hooks saw %d issues, want all %d", len(got), len(ref))
	}
}
