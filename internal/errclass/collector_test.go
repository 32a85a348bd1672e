package errclass

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/units"
)

func TestCollectorAccumulation(t *testing.T) {
	col := NewCollector("decoder")
	models := make([]uint16, 100)
	models[5] = 1<<errmodel.IRA | 1<<errmodel.IIO // two models, one fault
	models[9] = 1 << errmodel.IOC
	var events [errmodel.Count]int
	events[errmodel.IRA], events[errmodel.IIO], events[errmodel.IOC] = 2, 1, 1
	col.Absorb(models, events, 0)

	if got := col.FaultsCausing(errmodel.IRA); got != 1 {
		t.Errorf("IRA faults = %d, want 1", got)
	}
	if got := col.Events[errmodel.IRA]; got != 2 {
		t.Errorf("IRA events = %d, want 2", got)
	}
	if got := col.MultiModelFaults(); got != 1 {
		t.Errorf("multi-model faults = %d, want 1 (fault 5: IRA+IIO)", got)
	}
	if col.Unmapped != 0 {
		t.Errorf("unmapped = %d", col.Unmapped)
	}
	// FAPR: 1 of 100 faults causes IRA.
	if got := col.FAPR(errmodel.IRA, 100); got != 0.01 {
		t.Errorf("FAPR = %v, want 0.01", got)
	}
}

// A corrupted field with no rule counts once per corruption in Unmapped,
// makes the fault a software-visible error, and records no model.
func TestCollectorUnmappedField(t *testing.T) {
	col := NewCollector("decoder")
	if r := col.Rule("no_such_field"); r.Mapped || r.Value != nil {
		t.Fatalf("no_such_field has rule %+v", r)
	}
	b := netlist.NewBuilder("unmapped")
	b.Output("no_such_field", 0, b.Buf(b.Input("a")))
	u := &units.Unit{
		Name: "decoder", NL: b.MustBuild(), Cycles: 2,
		Drive: func(sim *netlist.Simulator, _ units.Pattern, _ int) { sim.SetInput(0, true) },
	}
	// The input and the buffer stuck at 0 each corrupt the field in both
	// cycles of the one pattern.
	sum := gatesim.CampaignCfg(u, []units.Pattern{{}}, col, gatesim.Config{})
	if col.Unmapped != 4 {
		t.Errorf("unmapped = %d, want 4", col.Unmapped)
	}
	if sum.NumSWError != 2 {
		t.Errorf("sw-error faults = %d, want 2", sum.NumSWError)
	}
	for i, set := range col.FaultModels {
		if set != 0 {
			t.Errorf("fault %d: unmapped corruption recorded models %b", i, set)
		}
	}
}

func TestWSCFieldMap(t *testing.T) {
	p := units.Pattern{}
	cases := []struct {
		field string
		want  errmodel.Model
	}{
		{"sel_warp", errmodel.IAW},
		{"issued_state", errmodel.IAW},
		{"active_mask", errmodel.IAT},
		{"cta_id", errmodel.IAC},
		{"shmem_base", errmodel.IPP},
		{"regfile_base", errmodel.IPP},
		{"lane_enable", errmodel.IAL},
	}
	for _, c := range cases {
		m, ok := ModelFor("wsc", c.field, p, 0, 1)
		if !ok || m != c.want {
			t.Errorf("wsc %s -> %v,%v want %v", c.field, m, ok, c.want)
		}
	}
	// op_route: valid opcode -> IOC, invalid -> IVOC.
	if m, _ := ModelFor("wsc", "op_route", p, 1, uint64(isa.OpFMUL)); m != errmodel.IOC {
		t.Errorf("op_route valid -> %v", m)
	}
	if m, _ := ModelFor("wsc", "op_route", p, 1, 0xEE); m != errmodel.IVOC {
		t.Errorf("op_route invalid -> %v", m)
	}
	if _, ok := ModelFor("unknown-unit", "x", p, 0, 1); ok {
		t.Error("unknown unit mapped")
	}
}

func TestDecoderSRSelSplit(t *testing.T) {
	p := units.Pattern{Word: isa.Instruction{Op: isa.OpS2R, Rd: 1, Imm: isa.SRTidX}.Encode()}
	if m, _ := ModelFor("decoder", "sr_sel", p, uint64(isa.SRTidX), uint64(isa.SRTidY)); m != errmodel.IAT {
		t.Errorf("tid->tid corruption = %v, want IAT", m)
	}
	if m, _ := ModelFor("decoder", "sr_sel", p, uint64(isa.SRTidX), uint64(isa.SRCtaidX)); m != errmodel.IAC {
		t.Errorf("tid->ctaid corruption = %v, want IAC", m)
	}
	if m, _ := ModelFor("decoder", "sr_sel", p, uint64(isa.SRCtaidY), uint64(isa.SRTidX)); m != errmodel.IAC {
		t.Errorf("ctaid->tid corruption = %v, want IAC", m)
	}
}

// irRuleByDecode is irRule stated over two decoded instructions: the
// reference the field-bit form is held to.
func irRuleByDecode(golden, faulty uint64) errmodel.Model {
	g := isa.Decode(isa.Word(golden))
	f := isa.Decode(isa.Word(faulty))
	switch {
	case g.Op != f.Op:
		return opcodeModel(uint64(f.Op))
	case g.Rd != f.Rd:
		return regModel(uint64(f.Rd))
	case g.Rs1 != f.Rs1:
		return regModel(uint64(f.Rs1))
	case g.Rs2 != f.Rs2:
		return regModel(uint64(f.Rs2))
	case g.Rs3 != f.Rs3:
		return regModel(uint64(f.Rs3))
	case g.Imm != f.Imm:
		return errmodel.IIO
	case g.Pred != f.Pred || g.Flags != f.Flags:
		return errmodel.WV
	}
	return errmodel.IOC
}

// TestIRRuleMatchesDecode: the fetch ir rule, which never decodes, gives
// the decode-based model for random word pairs, for pairs a few bits
// apart, and for every single-bit flip of random and real instruction
// words.
func TestIRRuleMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	check := func(golden, faulty uint64) {
		t.Helper()
		if got, want := irRule(units.Pattern{}, golden, faulty), irRuleByDecode(golden, faulty); got != want {
			t.Fatalf("irRule(%#016x, %#016x) = %v, decode says %v", golden, faulty, got, want)
		}
	}
	words := []uint64{0}
	for op := isa.Opcode(0); op < 0xFF; op++ {
		if op.Valid() {
			in := isa.Instruction{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Rs3: 4, Imm: 5, Pred: isa.PT}
			words = append(words, uint64(in.Encode()))
		}
	}
	for range 500 {
		words = append(words, rng.Uint64())
	}
	for _, w := range words {
		for b := range 64 {
			check(w, w^1<<b)
		}
		check(w, rng.Uint64())
		check(w, w^rng.Uint64()&rng.Uint64()&rng.Uint64())
	}
	for range 100000 {
		check(rng.Uint64(), rng.Uint64())
	}
}
