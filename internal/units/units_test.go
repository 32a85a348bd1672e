package units

import (
	"fmt"
	"testing"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
)

// runPattern drives one pattern through the unit and returns the simulator
// in its post-pattern state (outputs evaluated).
func runPattern(u *Unit, p Pattern) *netlist.Simulator {
	sim := netlist.NewSimulator(u.NL)
	for c := 0; c < u.Cycles; c++ {
		u.Drive(sim, p, c)
		sim.Step()
	}
	sim.Eval()
	return sim
}

func TestDecoderGoldenDecode(t *testing.T) {
	u := Decoder()
	in := isa.Instruction{
		Op: isa.OpIMAD, Pred: 0x9, Rd: 5, Rs1: 7, Rs2: 11, Rs3: 13,
		Imm: 0xABCD, Flags: 0x3,
	}
	sim := runPattern(u, Pattern{Word: in.Encode()})

	checks := map[string]uint64{
		"opcode":       uint64(isa.OpIMAD),
		"valid":        1,
		"pred":         0x9,
		"rd":           5,
		"rs1":          7,
		"rs2":          11,
		"rs3":          13,
		"imm":          0xABCD,
		"flags":        0x3,
		"wen":          1,
		"has_imm":      0,
		"is_load":      0,
		"is_store":     0,
		"mem_space":    0,
		"sr_sel":       0,
		"writes_pred":  0,
		"reg_ok":       1,
		"unit_sel":     uint64(isa.UnitINT),
		"decode_valid": 0, // in_valid was deasserted on the observe cycle
	}
	for field, want := range checks {
		if got := sim.OutputWord(field, 0); got != want {
			t.Errorf("decoder %s = %#x, want %#x", field, got, want)
		}
	}
}

func TestDecoderClassifiesOpcodes(t *testing.T) {
	u := Decoder()
	cases := []struct {
		in    isa.Instruction
		field string
		want  uint64
	}{
		{isa.Instruction{Op: isa.OpGLD, Rd: 1, Rs1: 2, Imm: 4}, "is_load", 1},
		{isa.Instruction{Op: isa.OpGLD, Rd: 1, Rs1: 2}, "mem_space", 1},
		{isa.Instruction{Op: isa.OpSTS, Rs1: 1, Rs2: 2}, "is_store", 1},
		{isa.Instruction{Op: isa.OpSTS, Rs1: 1, Rs2: 2}, "mem_space", 2},
		{isa.Instruction{Op: isa.OpLDC, Rd: 1, Rs1: isa.RZ}, "mem_space", 3},
		{isa.Instruction{Op: isa.OpISETP, Rd: 2, Rs1: 1, Rs2: 3}, "writes_pred", 1},
		{isa.Instruction{Op: isa.OpS2R, Rd: 1, Imm: isa.SRCtaidX}, "sr_sel", uint64(isa.SRCtaidX)},
		{isa.Instruction{Op: isa.OpMOV32I, Rd: 1, Imm: 42}, "has_imm", 1},
		{isa.Instruction{Op: isa.OpFSIN, Rd: 1, Rs1: 2}, "unit_sel", uint64(isa.UnitSFU)},
	}
	for _, c := range cases {
		sim := runPattern(u, Pattern{Word: c.in.Encode()})
		if got := sim.OutputWord(c.field, 0); got != c.want {
			t.Errorf("%v: %s = %#x, want %#x", c.in, c.field, got, c.want)
		}
	}
}

func TestDecoderInvalidOpcodeAndRegs(t *testing.T) {
	u := Decoder()
	bad := isa.Instruction{Op: isa.Opcode(0xEE)}
	sim := runPattern(u, Pattern{Word: bad.Encode()})
	if got := sim.OutputWord("valid", 0); got != 0 {
		t.Errorf("invalid opcode decoded as valid")
	}
	badReg := isa.Instruction{Op: isa.OpIADD, Rd: 100, Rs1: 1, Rs2: 2}
	sim = runPattern(u, Pattern{Word: badReg.Encode()})
	if got := sim.OutputWord("reg_ok", 0); got != 0 {
		t.Errorf("out-of-bounds Rd reported reg_ok")
	}
	rzOK := isa.Instruction{Op: isa.OpIADD, Rd: 1, Rs1: isa.RZ, Rs2: 2}
	sim = runPattern(u, Pattern{Word: rzOK.Encode()})
	if got := sim.OutputWord("reg_ok", 0); got != 1 {
		t.Errorf("RZ source flagged invalid")
	}
}

func TestFetchSequentialAndBranch(t *testing.T) {
	u := Fetch()
	sim := netlist.NewSimulator(u.NL)
	word := isa.Instruction{Op: isa.OpIADD, Rd: 1, Rs1: 2, Rs2: 3}.Encode()

	// Three sequential fetches on warp 2: PC walks 0,1,2.
	for i := 0; i < 3; i++ {
		p := Pattern{Word: word, WarpID: 2}
		for c := 0; c < u.Cycles; c++ {
			u.Drive(sim, p, c)
			sim.Step()
		}
		sim.Eval()
		if got := sim.OutputWord("ir", 0); got != uint64(word) {
			t.Fatalf("fetch %d: ir = %#x, want %#x", i, got, uint64(word))
		}
		if got := sim.OutputWord("pc", 0); got != uint64(i+1) {
			t.Fatalf("fetch %d: pc = %d, want %d", i, got, i+1)
		}
		if got := sim.OutputWord("warp_sel_out", 0); got != 2 {
			t.Fatalf("fetch %d: warp_sel_out = %d", i, got)
		}
	}

	// A taken branch on warp 2 redirects its PC; warp 0's PC is untouched.
	p := Pattern{Word: word, WarpID: 2, BranchTaken: true, BranchTarget: 40}
	for c := 0; c < u.Cycles; c++ {
		u.Drive(sim, p, c)
		sim.Step()
	}
	sim.Eval()
	if got := sim.OutputWord("pc", 0); got != 40 {
		t.Fatalf("post-branch pc = %d, want 40", got)
	}
	p = Pattern{Word: word, WarpID: 0}
	for c := 0; c < u.Cycles; c++ {
		u.Drive(sim, p, c)
		sim.Step()
	}
	sim.Eval()
	if got := sim.OutputWord("pc", 0); got != 1 {
		t.Fatalf("warp 0 pc = %d, want 1 (its first fetch)", got)
	}
}

func TestWSCArbitrationAndMaskTable(t *testing.T) {
	u := WSC()
	p := Pattern{
		Word:       isa.Instruction{Op: isa.OpFADD, Rd: 1, Rs1: 2, Rs2: 3}.Encode(),
		WarpID:     3,
		ActiveMask: 0x00FF00FF,
		CTAID:      5,
		WarpValid:  0b1010,
		WarpReady:  0b1010,
	}
	sim := runPattern(u, p)
	if got := sim.OutputWord("issue_valid", 0); got != 1 {
		t.Fatalf("issue_valid = %d with ready warps", got)
	}
	// Cycle 0 seeds the issue token (no grant latched), cycle 1 grants
	// warp 1 and latches it, so the observed post-pattern arbitration
	// starts after warp 1: the next ready warp is 3.
	if got := sim.OutputWord("sel_warp", 0); got != 3 {
		t.Fatalf("sel_warp = %d, want 3", got)
	}
	if got := sim.OutputWord("cta_id", 0); got != 5 {
		t.Fatalf("cta_id = %d, want 5", got)
	}
	if got := sim.OutputWord("shmem_base", 0); got != 5*16 {
		t.Fatalf("shmem_base = %d, want %d", got, 5*16)
	}
	if got := sim.OutputWord("op_route", 0); got != uint64(isa.OpFADD) {
		t.Fatalf("op_route = %#x, want %#x", got, uint64(isa.OpFADD))
	}
}

func TestWSCMaskReadBack(t *testing.T) {
	u := WSC()
	// Write warp 1's mask in pattern 1, then select warp 1 and observe
	// active_mask.
	sim := netlist.NewSimulator(u.NL)
	p1 := Pattern{WarpID: 1, ActiveMask: 0xDEADBEEF, WarpValid: 0b10, WarpReady: 0b10}
	for c := 0; c < u.Cycles; c++ {
		u.Drive(sim, p1, c)
		sim.Step()
	}
	sim.Eval()
	if got := sim.OutputWord("sel_warp", 0); got != 1 {
		t.Fatalf("sel_warp = %d, want 1", got)
	}
	if got := sim.OutputWord("active_mask", 0); got != 0xDEADBEEF {
		t.Fatalf("active_mask = %#x, want 0xdeadbeef", got)
	}
	// lane_enable groups of 4: 0xDEADBEEF has every nibble non-zero.
	if got := sim.OutputWord("lane_enable", 0); got != 0xFF {
		t.Fatalf("lane_enable = %#x, want 0xff", got)
	}
}

func TestWSCBarrierRelease(t *testing.T) {
	u := WSC()
	p := Pattern{WarpValid: 0b11, WarpBarrier: 0b11, WarpReady: 0}
	sim := runPattern(u, p)
	if got := sim.OutputWord("barrier_release", 0); got != 1 {
		t.Fatalf("barrier_release = %d with all valid warps parked", got)
	}
	if got := sim.OutputWord("issue_valid", 0); got != 0 {
		t.Fatalf("issue_valid = %d with all warps at barrier", got)
	}
	p2 := Pattern{WarpValid: 0b11, WarpBarrier: 0b01, WarpReady: 0b10}
	sim = runPattern(u, p2)
	if got := sim.OutputWord("barrier_release", 0); got != 0 {
		t.Fatalf("barrier_release = %d with one warp missing", got)
	}
}

func TestWSCRoundRobinRotation(t *testing.T) {
	u := WSC()
	sim := netlist.NewSimulator(u.NL)
	p := Pattern{WarpValid: 0b111, WarpReady: 0b111}
	u.Drive(sim, p, 1) // steady-state inputs; no table writes
	var grants []uint64
	for cyc := 0; cyc < 7; cyc++ {
		sim.Eval()
		grants = append(grants, sim.OutputWord("sel_warp", 0))
		sim.Clock()
	}
	// Cycle 0 only seeds the issue token; from then on the arbiter
	// rotates once per clock over warps {0,1,2}: after granting w it
	// grants w+1.
	grants = grants[1:]
	for i := 1; i < len(grants); i++ {
		want := (grants[i-1] + 1) % 3
		if grants[i] != want {
			t.Fatalf("grant sequence %v not round-robin at %d", grants, i)
		}
	}
}

func TestUnitSizes(t *testing.T) {
	// The relative-size ordering of Table 3 must hold: WSC much larger
	// than fetch and decoder; fetch and decoder in the same class.
	wsc, fetch, dec := WSC(), Fetch(), Decoder()
	aw, af, ad := GateEquivalents(wsc.NL), GateEquivalents(fetch.NL), GateEquivalents(dec.NL)
	if aw <= af || aw <= ad {
		t.Errorf("WSC GE %.0f should dominate fetch %.0f and decoder %.0f", aw, af, ad)
	}
	if RelativeToFP32(fetch.NL) > 25 || RelativeToFP32(dec.NL) > 25 {
		t.Errorf("fetch/decoder should be small vs the FP32 core: %.1f%% %.1f%%",
			RelativeToFP32(fetch.NL), RelativeToFP32(dec.NL))
	}
	for _, u := range All() {
		if u.NL.NumFaults() < 500 {
			t.Errorf("%s has only %d faults; the campaign needs a dense list",
				u.Name, u.NL.NumFaults())
		}
		t.Logf("%s", shape(u.NL))
	}
}

// shape is a one-line summary of a netlist's size.
func shape(nl *netlist.Netlist) string {
	return fmt.Sprintf("%s: %d cells (%d inputs, %d DFFs, %d outputs)",
		nl.Name, len(nl.Cells), len(nl.Inputs), len(nl.DFFs), len(nl.Outputs))
}

func TestHangFieldsExist(t *testing.T) {
	for _, u := range All() {
		fields := map[string]bool{}
		for _, o := range u.NL.Outputs {
			fields[o.Field] = true
		}
		for hf := range u.HangFields {
			if !fields[hf] {
				t.Errorf("%s: hang field %q is not an output field", u.Name, hf)
			}
		}
	}
}

// TestByNameCoversAll: every unit All returns is reachable by its name as
// the same netlist (the job scheduler names gate chunks by Unit.Name), and
// an unknown name is nil.
func TestByNameCoversAll(t *testing.T) {
	for _, u := range All() {
		got := ByName(u.Name)
		if got == nil {
			t.Fatalf("ByName(%q) = nil", u.Name)
		}
		if got.Name != u.Name || shape(got.NL) != shape(u.NL) {
			t.Errorf("ByName(%q) built %s (%s); All has %s", u.Name, got.Name, shape(got.NL), shape(u.NL))
		}
	}
	if ByName("no-such-unit") != nil {
		t.Error("ByName of an unknown unit is not nil")
	}
}

// TestNamesMatchAll: the names list is All's units, in All's order, and
// ByName builds each one.
func TestNamesMatchAll(t *testing.T) {
	all := All()
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names() = %v, All() has %d units", names, len(all))
	}
	for i, u := range all {
		if names[i] != u.Name {
			t.Errorf("Names()[%d] = %q, All()[%d] is %q", i, names[i], i, u.Name)
		}
		if b := ByName(names[i]); b == nil || b.Name != names[i] {
			t.Errorf("ByName(%q) = %v", names[i], b)
		}
	}
}
