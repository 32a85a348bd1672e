package errmodel

import (
	"math/rand"
	"slices"
	"testing"

	"gpufaultsim/internal/isa"
)

func TestModelNamesAndParse(t *testing.T) {
	for _, m := range All() {
		name := m.String()
		got, err := ParseModel(name)
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseModel("BOGUS"); err == nil {
		t.Error("ParseModel accepted unknown name")
	}
}

func TestThirteenModelsFourGroups(t *testing.T) {
	if Count != 13 {
		t.Fatalf("Count = %d, want 13 (the paper's 13 error categories)", Count)
	}
	perGroup := map[Group]int{}
	for _, m := range All() {
		perGroup[m.Group()]++
	}
	want := map[Group]int{
		GroupOperation: 5, GroupControlFlow: 1,
		GroupParallelMgmt: 4, GroupResourceMgmt: 3,
	}
	for g, n := range want {
		if perGroup[g] != n {
			t.Errorf("group %v has %d models, want %d", g, perGroup[g], n)
		}
	}
}

func TestInjectableExcludesIPPAndIVOC(t *testing.T) {
	inj := Injectable()
	if len(inj) != 11 {
		t.Fatalf("Injectable has %d models, want 11", len(inj))
	}
	for _, m := range inj {
		if m == IPP || m == IVOC {
			t.Errorf("%v must not be injectable", m)
		}
	}
}

func TestWarpWideClassification(t *testing.T) {
	// Per the paper: IOC, IVOC, IRA, IVRA, IPP, IAW affect all threads in
	// a warp; the rest corrupt one or a few threads.
	wide := map[Model]bool{IOC: true, IVOC: true, IRA: true, IVRA: true,
		IPP: true, IAW: true}
	for _, m := range All() {
		if m.WarpWide() != wide[m] {
			t.Errorf("%v.WarpWide() = %v, want %v", m, m.WarpWide(), wide[m])
		}
	}
}

func TestRandomDescriptorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range All() {
		for i := 0; i < 200; i++ {
			d := Random(m, rng, 8, 2)
			if d.SM != 0 {
				t.Fatalf("%v: descriptor targets SM%d, campaigns pin SM0", m, d.SM)
			}
			if d.PPB < 0 || d.PPB >= 2 {
				t.Fatalf("%v: PPB %d out of range", m, d.PPB)
			}
			if len(d.Warps) == 0 {
				t.Fatalf("%v: no warps targeted", m)
			}
			for _, w := range d.Warps {
				if w%2 != d.PPB {
					t.Fatalf("%v: warp %d not bound to PPB %d", m, w, d.PPB)
				}
			}
			if m.WarpWide() && d.Threads != 0xFFFFFFFF {
				t.Fatalf("%v: warp-wide model must target all lanes", m)
			}
			if !m.WarpWide() && d.Threads == 0 {
				t.Fatalf("%v: no lanes targeted", m)
			}
			switch m {
			case IRA:
				if d.BitErrMask == 0 || d.BitErrMask >= isa.RegsPerThread {
					t.Fatalf("IRA mask %#x must keep registers valid", d.BitErrMask)
				}
			case IVRA:
				if d.BitErrMask < isa.RegsPerThread {
					t.Fatalf("IVRA mask %#x must exceed the register budget", d.BitErrMask)
				}
			case WV:
				if d.BitErrMask >= isa.NumPredicates {
					t.Fatalf("WV target predicate %d out of range", d.BitErrMask)
				}
			}
		}
	}
}

func TestTargetsWarp(t *testing.T) {
	d := Descriptor{SM: 0, PPB: 1, Warps: []int{1, 3}}
	if !d.TargetsWarp(0, 1, 3) {
		t.Error("warp 3 should be targeted")
	}
	if d.TargetsWarp(0, 1, 5) || d.TargetsWarp(1, 1, 3) || d.TargetsWarp(0, 0, 3) {
		t.Error("non-targeted warp matched")
	}
}

// TestReplacementNeverIdentity: for every ReplOp that Random draws and
// every INT or FP32 opcode, IOC replaces the opcode with a different
// candidate of its own unit.
func TestReplacementNeverIdentity(t *testing.T) {
	for _, repl := range intReplacements {
		d := Descriptor{Model: IOC, ReplOp: repl}
		for orig := isa.Opcode(0); orig.Valid(); orig++ {
			cands := intReplacements
			switch orig.Unit() {
			case isa.UnitINT:
			case isa.UnitFP32:
				cands = fpReplacements
			default:
				continue
			}
			if op := d.Replacement(orig); op == orig || !slices.Contains(cands, op) {
				t.Errorf("ReplOp %v: %v is replaced by %v", repl, orig, op)
			}
		}
	}
}

// TestEligible states, per model, instructions its error function can and
// cannot act on, with the RZ, IAC-detention and WV predicate cases.
func TestEligible(t *testing.T) {
	op2 := func(op isa.Opcode, rd, rs1, rs2 uint8) isa.Instruction {
		return isa.Instruction{Op: op, Pred: isa.PT, Rd: rd, Rs1: rs1, Rs2: rs2}
	}
	guarded := func(in isa.Instruction, pred uint8) isa.Instruction { in.Pred = pred; return in }
	s2r := func(rd uint8, sr uint16) isa.Instruction {
		return isa.Instruction{Op: isa.OpS2R, Pred: isa.PT, Rd: rd, Imm: sr}
	}
	setp := func(op isa.Opcode, pd uint8) isa.Instruction { return op2(op, pd, 1, 2) }
	var (
		iadd  = op2(isa.OpIADD, 1, 2, 3)
		ffma  = isa.Instruction{Op: isa.OpFFMA, Pred: isa.PT, Rd: 1, Rs1: 2, Rs2: 3, Rs3: 4}
		mov   = op2(isa.OpMOV, 1, 2, 0)
		movi  = isa.Instruction{Op: isa.OpMOV32I, Pred: isa.PT, Rd: 1, Imm: 9}
		gld   = op2(isa.OpGLD, 1, 2, 0)
		gst   = op2(isa.OpGST, 0, 1, 2)
		sts   = op2(isa.OpSTS, 0, 1, 2)
		lds   = op2(isa.OpLDS, 1, 2, 0)
		ldc   = op2(isa.OpLDC, 1, isa.RZ, 0)
		exit  = isa.Instruction{Op: isa.OpEXIT, Pred: isa.PT}
		bra   = isa.Instruction{Op: isa.OpBRA, Pred: isa.PT, Imm: 3}
		fsin  = op2(isa.OpFSIN, 1, 2, 0)
		rzDst = op2(isa.OpIADD, isa.RZ, 2, 3)
	)
	type row struct {
		d    Descriptor
		in   isa.Instruction
		want bool
	}
	at := func(m Model, loc int) Descriptor { return Descriptor{Model: m, ErrOperLoc: loc} }
	wv := func(mask uint32) Descriptor { return Descriptor{Model: WV, BitErrMask: mask} }
	rows := []row{
		{at(IOC, 0), iadd, true},
		{at(IOC, 0), ffma, true},
		{at(IOC, 0), mov, false}, // one source
		{at(IOC, 0), fsin, false},
		{at(IOC, 0), setp(isa.OpISETP, 0), false},

		{at(IVOC, 0), exit, true},
		{at(IVOC, 0), iadd, true},

		{at(IRA, 0), iadd, true},
		{at(IRA, 0), rzDst, false},
		{at(IRA, 0), gst, false}, // writes no register
		{at(IRA, 1), iadd, true},
		{at(IRA, 1), op2(isa.OpIADD, 1, isa.RZ, 3), false},
		{at(IRA, 2), op2(isa.OpIADD, 1, 2, isa.RZ), false},
		{at(IRA, 3), iadd, false}, // no third source
		{at(IRA, 3), ffma, true},
		{at(IRA, 1), movi, false},
		{at(IVRA, 0), iadd, true},
		{at(IVRA, 2), iadd, true},
		{at(IVRA, 2), mov, false},

		{at(IIO, 0), movi, true},
		{at(IIO, 0), gld, true},
		{at(IIO, 0), isa.Instruction{Op: isa.OpMOV32I, Pred: isa.PT, Rd: isa.RZ}, false},
		{at(IIO, 0), iadd, false},
		{at(IIO, 0), gst, false}, // an immediate, but no register result

		{wv(2), setp(isa.OpISETP, 2), true},
		{wv(2), setp(isa.OpFSETP, 2), true},
		{wv(2), setp(isa.OpPSETP, 2), true},
		{wv(2), setp(isa.OpISETP, 1), false},
		{wv(9), setp(isa.OpISETP, 2), true}, // 9 % NumPredicates
		{wv(7), setp(isa.OpISETP, 0), true},
		{wv(2), op2(isa.OpIADD, 2, 1, 1), false},

		{at(IAT, 0), s2r(1, isa.SRTidX), true},
		{at(IAT, 0), s2r(1, isa.SRTidZ), true},
		{at(IAT, 0), s2r(1, isa.SRCtaidX), false},
		{at(IAT, 0), s2r(isa.RZ, isa.SRTidX), false},
		{at(IAW, 0), s2r(1, isa.SRTidY), true},
		{at(IAW, 0), iadd, false},

		{at(IAC, 0), s2r(1, isa.SRCtaidX), true},
		{at(IAC, 0), s2r(1, isa.SRCtaidZ), true},
		{at(IAC, 0), s2r(1, isa.SRTidX), false},
		{at(IAC, 0), s2r(1, isa.SRNTidX), false},
		{at(IAC, 0), s2r(isa.RZ, isa.SRCtaidX), false},
		{at(IAC, 1), exit, true}, // detention holds the block anywhere
		{at(IAC, 1), bra, true},

		{at(IAL, 0), iadd, true},
		{at(IAL, 0), mov, true},
		{at(IAL, 0), rzDst, false},
		{at(IAL, 0), gld, false},
		{at(IAL, 1), guarded(iadd, 0), true},
		{at(IAL, 1), guarded(iadd, 0x8|isa.PT), true}, // @!PT never passes
		{at(IAL, 1), iadd, false},                     // nothing to force
		{at(IAL, 1), guarded(fsin, 0), false},

		{at(IMS, 0), lds, true},
		{at(IMS, 0), ldc, true},
		{at(IMS, 0), gld, false},
		{at(IMS, 0), op2(isa.OpLDS, isa.RZ, 2, 0), false},

		{at(IMD, 0), sts, true},
		{at(IMD, 0), op2(isa.OpSTS, 0, 1, isa.RZ), false},
		{at(IMD, 1), op2(isa.OpSTS, 0, 1, isa.RZ), true},
		{at(IMD, 1), op2(isa.OpSTS, 0, isa.RZ, 2), false},
		{at(IMD, 0), gst, false},
		{at(IMD, 0), lds, false},

		{at(IPP, 0), iadd, false},
		{at(IPP, 0), s2r(1, isa.SRTidX), false},
	}
	for _, r := range rows {
		if got := r.d.Eligible(r.in); got != r.want {
			t.Errorf("%v (mask %d, loc %d).Eligible(%v) = %v, want %v",
				r.d.Model, r.d.BitErrMask, r.d.ErrOperLoc, r.in, got, r.want)
		}
	}
}

// TestRandomDrawsEveryLoc: Random draws ErrOperLoc over exactly
// [0, Locs) for every model.
func TestRandomDrawsEveryLoc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range All() {
		seen := make([]bool, m.Locs())
		for range 400 {
			d := Random(m, rng, 8, 2)
			if d.ErrOperLoc < 0 || d.ErrOperLoc >= m.Locs() {
				t.Fatalf("%v: ErrOperLoc %d outside [0,%d)", m, d.ErrOperLoc, m.Locs())
			}
			seen[d.ErrOperLoc] = true
		}
		if i := slices.Index(seen, false); i >= 0 {
			t.Errorf("%v: ErrOperLoc %d never drawn", m, i)
		}
	}
}
