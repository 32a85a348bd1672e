package rtlfi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gpufaultsim/internal/isa"
)

func TestGoldenMatchesSimulatorSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := rng.Uint32(), rng.Uint32(), rng.Uint32()
		fa := math.Float32frombits(a&0x7FFFFF | 0x3F800000) // tame FP values
		fb := math.Float32frombits(b&0x7FFFFF | 0x40000000)
		ab, bb := math.Float32bits(fa), math.Float32bits(fb)
		if got, want := isa.Eval(isa.OpIADD, a, b, 0), uint32(int32(a)+int32(b)); got != want {
			t.Fatalf("IADD mismatch")
		}
		if got, want := isa.Eval(isa.OpFMUL, ab, bb, 0), math.Float32bits(fa*fb); got != want {
			t.Fatalf("FMUL mismatch")
		}
		want := math.Float32bits(float32(float64(fa)*float64(fb) + float64(math.Float32frombits(c))))
		if got := isa.Eval(isa.OpFFMA, ab, bb, c); got != want {
			t.Fatalf("FFMA mismatch")
		}
	}
}

func TestRippleAddMatchesAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		x, y := rng.Uint32(), rng.Uint32()
		sum, _ := rippleAdd(x, y, -1, false)
		if sum != x+y {
			t.Fatalf("rippleAdd(%#x,%#x) = %#x, want %#x", x, y, sum, x+y)
		}
	}
}

func TestCarryFaultChangesHighBitsOnly(t *testing.T) {
	// Forcing a carry at bit 20 must leave bits 0..19 intact.
	sum, act := rippleAdd(1, 1, 20, true)
	if !act {
		t.Fatal("forced carry not activated")
	}
	if sum&0xFFFFF != 2&0xFFFFF {
		t.Errorf("low bits corrupted: %#x", sum)
	}
	if sum == 2 {
		t.Errorf("carry fault had no effect")
	}
}

func TestOperandFaultActivation(t *testing.T) {
	// Stuck value equal to the actual bit must be inactive (golden result).
	a := uint32(0b1010)
	out, act := ComputeFaulty(isa.OpIADD, a, 1, 0, Site{Stage: StOpA, Bit: 1, Stuck: true})
	if act || out != a+1 {
		t.Errorf("matching stuck bit should be inactive: act=%v out=%d", act, out)
	}
	out, act = ComputeFaulty(isa.OpIADD, a, 1, 0, Site{Stage: StOpA, Bit: 0, Stuck: true})
	if !act || out != (a|1)+1 {
		t.Errorf("stuck-1 on a zero bit must activate: act=%v out=%d", act, out)
	}
}

func TestGuardFaultOnlyWhenInexact(t *testing.T) {
	// 1.0 + 1.0 is exact: guard logic idle.
	one := math.Float32bits(1)
	_, act := ComputeFaulty(isa.OpFADD, one, one, 0, Site{Stage: StGuard, Bit: 0, Stuck: true})
	if act {
		t.Error("guard fault active on exact addition")
	}
	// 1 + 2^-24 rounds: guard logic exercised.
	tiny := math.Float32bits(float32(math.Pow(2, -25)))
	out, act := ComputeFaulty(isa.OpFADD, one, tiny, 0, Site{Stage: StGuard, Bit: 0, Stuck: true})
	if !act {
		t.Error("guard fault inactive on inexact addition")
	}
	if out == isa.Eval(isa.OpFADD, one, tiny, 0) {
		t.Error("active guard fault did not perturb result")
	}
}

func TestDenormAndSpecialSitesIdleOnNormalInputs(t *testing.T) {
	a := math.Float32bits(2.5)
	b := math.Float32bits(3.5)
	for _, st := range []Stage{StDenorm, StSpecial} {
		_, act := ComputeFaulty(isa.OpFMUL, a, b, 0, Site{Stage: st, Bit: 3, Stuck: true})
		if act {
			t.Errorf("%v site active on normal operands", st)
		}
	}
}

func TestSiteListsShapes(t *testing.T) {
	fp := SitesFor(ModFP32, isa.OpFADD)
	in := SitesFor(ModINT, isa.OpIADD)
	if len(fp) <= len(in) {
		t.Errorf("FP32 site list (%d) should exceed INT (%d): larger unit area",
			len(fp), len(in))
	}
	pipe := SitesFor(ModPipe, isa.OpFADD)
	ctl := 0
	for _, s := range pipe {
		switch s.Stage {
		case StPipeOp, StPipeMask, StPipeMem:
			ctl++
		}
	}
	frac := float64(ctl) / float64(len(pipe))
	// Paper: ~16% of pipeline register bits are control.
	if frac < 0.05 || frac > 0.3 {
		t.Errorf("pipeline control fraction %.2f outside the paper's ~16%%", frac)
	}
	sched := SitesFor(ModSched, isa.OpFADD)
	if len(sched) == 0 {
		t.Fatal("no scheduler sites")
	}
	ffma := SitesFor(ModFP32, isa.OpFFMA)
	if len(ffma) <= len(fp) {
		t.Error("FFMA datapath must include the opC bus")
	}
}

func TestMicroAVFShapes(t *testing.T) {
	cfg := MicroConfig{Seed: 5, ValuesPerRange: 2, LanesSampled: 2}

	fadd, _ := MicroAVF(isa.OpFADD, ModFP32, cfg)
	iadd, _ := MicroAVF(isa.OpIADD, ModINT, cfg)
	// Paper: FP32 FU AVF much smaller than INT (larger area, more
	// conditionally-idle logic).
	if fadd.AVF() >= iadd.AVF() {
		t.Errorf("FADD FU AVF %.3f should be below IADD %.3f", fadd.AVF(), iadd.AVF())
	}
	// FU faults corrupt about one thread per warp.
	if fadd.AvgCorruptedThreads > 2 {
		t.Errorf("FP32 corrupted threads/warp %.1f, want ~1", fadd.AvgCorruptedThreads)
	}

	fsin, _ := MicroAVF(isa.OpFSIN, ModSFU, cfg)
	if fsin.AvgCorruptedThreads < 3 {
		t.Errorf("SFU corrupted threads/warp %.1f, want ~8 (shared unit)", fsin.AvgCorruptedThreads)
	}

	sched, _ := MicroAVF(isa.OpIADD, ModSched, cfg)
	if sched.AvgCorruptedThreads < 8 {
		t.Errorf("scheduler corrupted threads/warp %.1f, want tens", sched.AvgCorruptedThreads)
	}
	if sched.SDCMulti == 0 {
		t.Error("scheduler produced no multi-thread SDCs")
	}

	// Pipeline DUE AVF is exacerbated for memory/control instructions.
	pipeAdd, _ := MicroAVF(isa.OpIADD, ModPipe, cfg)
	pipeGld, _ := MicroAVF(isa.OpGLD, ModPipe, cfg)
	if pipeGld.DUE <= pipeAdd.DUE {
		t.Errorf("pipeline DUE on GLD %.3f should exceed IADD %.3f",
			pipeGld.DUE, pipeAdd.DUE)
	}
}

func TestMicroAVFFractionsSumToOne(t *testing.T) {
	cfg := MicroConfig{Seed: 6, ValuesPerRange: 1, LanesSampled: 1}
	for _, op := range MicroInstructions() {
		for _, m := range ModulesFor(op) {
			row, _ := MicroAVF(op, m, cfg)
			sum := row.Masked + row.SDCSingle + row.SDCMulti + row.DUE
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%v/%v fractions sum to %v", op, m, sum)
			}
			if row.Injections == 0 {
				t.Errorf("%v/%v ran no injections", op, m)
			}
		}
	}
}

func TestSyndromePairsProduced(t *testing.T) {
	cfg := MicroConfig{Seed: 7, ValuesPerRange: 2, LanesSampled: 2}
	_, pairs := MicroAVF(isa.OpFMUL, ModFP32, cfg)
	if len(pairs) == 0 {
		t.Fatal("no syndrome pairs from FMUL FU campaign")
	}
	res := RelativeErrors(pairs, true)
	if len(res) == 0 {
		t.Fatal("no finite relative errors")
	}
	for _, re := range res {
		if re <= 0 || math.IsInf(re, 0) || math.IsNaN(re) {
			t.Fatalf("bad relative error %v", re)
		}
	}
}

func TestClassifyPattern(t *testing.T) {
	const n = 16
	idx := func(r, c int) int { return r*n + c }
	var row []int
	for c := 0; c < 12; c++ {
		row = append(row, idx(3, c))
	}
	if got := ClassifyPattern(row, n); got != PatRow {
		t.Errorf("row pattern = %v", got)
	}
	// Multiple substantially-corrupted rows still classify as row (the
	// paper's row pattern has no fixed position or count).
	var rows2 []int
	for c := 0; c < n; c++ {
		rows2 = append(rows2, idx(2, c), idx(6, c))
	}
	if got := ClassifyPattern(rows2, n); got != PatRow {
		t.Errorf("two-row pattern = %v", got)
	}
	var col []int
	for r := 0; r < 12; r++ {
		col = append(col, idx(r, 7))
	}
	if got := ClassifyPattern(col, n); got != PatCol {
		t.Errorf("col pattern = %v", got)
	}
	var rowcol []int
	for c := 0; c < n; c++ {
		rowcol = append(rowcol, idx(3, c))
	}
	for r := 0; r < n; r++ {
		rowcol = append(rowcol, idx(r, 5))
	}
	if got := ClassifyPattern(rowcol, n); got != PatRowCol {
		t.Errorf("row+col pattern = %v", got)
	}
	var block []int
	for r := 4; r < 8; r++ {
		for c := 8; c < 12; c++ {
			block = append(block, idx(r, c))
		}
	}
	if got := ClassifyPattern(block, n); got != PatBlock {
		t.Errorf("block pattern = %v", got)
	}
	var all []int
	for i := 0; i < n*n; i++ {
		all = append(all, i)
	}
	if got := ClassifyPattern(all, n); got != PatAll {
		t.Errorf("all pattern = %v", got)
	}
	if got := ClassifyPattern([]int{5}, n); got != PatSingle {
		t.Errorf("single = %v", got)
	}
	scattered := []int{idx(0, 0), idx(15, 15), idx(7, 2), idx(2, 13), idx(12, 6)}
	if got := ClassifyPattern(scattered, n); got != PatRandom {
		t.Errorf("scattered = %v", got)
	}
}

func TestTMxMSingleInjections(t *testing.T) {
	// A stuck-at-0 thread-enable bit must corrupt output elements.
	res := RunTMxM(Site{Module: ModSched, Stage: StMaskBit, Bit: 3, Stuck: false},
		TileRandom, 9)
	if res.Outcome != MicroSDCMulti && res.Outcome != MicroSDCSingle {
		t.Errorf("mask-bit stuck-0 outcome = %v, want SDC", res.Outcome)
	}
	// Stuck-at-1 on the same bit is masked (thread already active).
	res = RunTMxM(Site{Module: ModSched, Stage: StMaskBit, Bit: 3, Stuck: true},
		TileRandom, 9)
	if res.Outcome != MicroMasked {
		t.Errorf("mask-bit stuck-1 outcome = %v, want Masked", res.Outcome)
	}
	// A pipeline operand-register fault corrupts lane-aligned elements:
	// Max tiles hold values in [2,4) whose exponent bit 30 is always set,
	// so stuck-at-0 there activates on every FFMA through the lane.
	res = RunTMxM(Site{Module: ModPipe, Stage: StPipeOpA, Bit: 30, Lane: 2, Stuck: false},
		TileMax, 9)
	if res.Outcome == MicroMasked {
		t.Error("pipeline operand fault masked on Max tiles")
	}
	// ...and the matching stuck-at-1 is data-masked on the same tiles.
	res = RunTMxM(Site{Module: ModPipe, Stage: StPipeOpA, Bit: 30, Lane: 2, Stuck: true},
		TileMax, 9)
	if res.Outcome != MicroMasked {
		t.Errorf("stuck-1 on an always-set exponent bit = %v, want Masked", res.Outcome)
	}
}

func TestTMxMStudySmall(t *testing.T) {
	st := RunTMxMStudy(TMxMConfig{Seed: 1, ValuesPerTile: 1, SiteStride: 16})
	if len(st.Rows) != 6 {
		t.Fatalf("study rows = %d, want 6 (2 modules x 3 tiles)", len(st.Rows))
	}
	for _, row := range st.Rows {
		sum := row.Masked + row.SDCSingle + row.SDCMulti + row.DUE
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v/%v fractions sum to %v", row.Module, row.Tile, sum)
		}
	}
	multi := 0
	for _, counts := range st.Patterns {
		for _, n := range counts {
			multi += n
		}
	}
	if multi == 0 {
		t.Error("study observed no multi-element patterns")
	}
}

func TestSyndromeMedianRangeDependence(t *testing.T) {
	// The paper: "the median of the syndrome values between S/M/L varies
	// by just ~1% in all cases but MUL and FMA, for which the median
	// changes by up to 30%". Directionally: multiplicative datapaths show
	// a stronger range dependence of the syndrome than additive ones.
	cfg := MicroConfig{Seed: 31, ValuesPerRange: 3, LanesSampled: 3}
	spread := func(op isa.Opcode) float64 {
		meds := make([]float64, 0, 3)
		for _, rg := range Ranges() {
			res := RelativeErrors(MicroSyndrome(op, ModFP32, rg, cfg), true)
			if len(res) == 0 {
				t.Fatalf("%v/%v: no syndromes", op, rg)
			}
			// Compare medians in log-space: the syndrome spans decades.
			logs := make([]float64, len(res))
			for i, r := range res {
				logs[i] = math.Log10(r)
			}
			meds = append(meds, median(logs))
		}
		lo, hi := meds[0], meds[0]
		for _, m := range meds[1:] {
			lo = math.Min(lo, m)
			hi = math.Max(hi, m)
		}
		return hi - lo
	}
	if sFMUL, sFADD := spread(isa.OpFMUL), spread(isa.OpFADD); sFMUL+1e-9 < sFADD {
		t.Errorf("FMUL median spread %.3f below FADD %.3f (paper: MUL/FMA most range-dependent)",
			sFMUL, sFADD)
	}
}

func median(xs []float64) float64 {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
