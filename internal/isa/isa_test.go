package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Instruction{
		Op: OpIMAD, Pred: 0x9, Rd: 3, Rs1: 5, Rs2: 7, Rs3: 11,
		Imm: 0xBEEF, Flags: 0x5,
	}
	got := Decode(in.Encode())
	if got != in {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, in)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(op, pred, rd, rs1, rs2, rs3 uint8, imm uint16, flags uint8) bool {
		in := Instruction{
			Op: Opcode(op), Pred: pred & 0xF, Rd: rd, Rs1: rs1,
			Rs2: rs2, Rs3: rs3, Imm: imm, Flags: flags & 0xF,
		}
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFieldIsolation(t *testing.T) {
	// Flipping a bit inside one field must change only that field — the
	// error-model classifier depends on field isolation.
	base := Instruction{Op: OpFADD, Pred: PT, Rd: 1, Rs1: 2, Rs2: 3}
	w := base.Encode()
	for bit := FieldRdLo; bit <= FieldRdHi; bit++ {
		d := Decode(w ^ Word(1)<<bit)
		if d.Op != base.Op || d.Rs1 != base.Rs1 || d.Rs2 != base.Rs2 ||
			d.Imm != base.Imm || d.Flags != base.Flags {
			t.Fatalf("bit %d leaked outside Rd field: %+v", bit, d)
		}
		if d.Rd == base.Rd {
			t.Fatalf("bit %d did not affect Rd", bit)
		}
	}
	for bit := FieldImmLo; bit <= FieldImmHi; bit++ {
		d := Decode(w ^ Word(1)<<bit)
		if d.Imm == base.Imm {
			t.Fatalf("bit %d did not affect Imm", bit)
		}
		if d.Op != base.Op || d.Rd != base.Rd {
			t.Fatalf("bit %d leaked outside Imm field", bit)
		}
	}
}

func TestOpcodeValidity(t *testing.T) {
	for op := Opcode(0); op < Opcode(Count()); op++ {
		if !op.Valid() {
			t.Errorf("opcode %d should be valid", op)
		}
		if op.String() == "" {
			t.Errorf("opcode %d has empty name", op)
		}
	}
	if Opcode(Count()).Valid() {
		t.Error("opcode Count() should be invalid")
	}
	if Opcode(0xFF).Valid() {
		t.Error("opcode 0xFF should be invalid")
	}
}

func TestUnitClassCoverage(t *testing.T) {
	want := map[Opcode]UnitClass{
		OpIADD: UnitINT, OpFADD: UnitFP32, OpFSIN: UnitSFU,
		OpFEXP: UnitSFU, OpGLD: UnitMEM, OpSTS: UnitMEM,
		OpBRA: UnitCTRL, OpISETP: UnitCTRL, OpEXIT: UnitNone,
		OpS2R: UnitINT, OpFFMA: UnitFP32,
	}
	for op, u := range want {
		if got := op.Unit(); got != u {
			t.Errorf("%v.Unit() = %v, want %v", op, got, u)
		}
	}
}

func TestSrcRegCounts(t *testing.T) {
	cases := map[Opcode]int{
		OpNOP: 0, OpMOV32I: 0, OpEXIT: 0,
		OpMOV: 1, OpGLD: 1, OpFSIN: 1,
		OpIADD: 2, OpGST: 2, OpISETP: 2,
		OpIMAD: 3, OpFFMA: 3,
	}
	for op, n := range cases {
		if got := op.SrcRegs(); got != n {
			t.Errorf("%v.SrcRegs() = %d, want %d", op, got, n)
		}
	}
}

func TestValidRegs(t *testing.T) {
	ok := Instruction{Op: OpIADD, Rd: 5, Rs1: RegsPerThread - 1, Rs2: RZ}
	if !ok.ValidRegs() {
		t.Error("instruction with valid registers rejected")
	}
	badDst := Instruction{Op: OpIADD, Rd: RegsPerThread, Rs1: 0, Rs2: 0}
	if badDst.ValidRegs() {
		t.Error("out-of-bounds destination register accepted")
	}
	badSrc := Instruction{Op: OpIADD, Rd: 0, Rs1: 200, Rs2: 0}
	if badSrc.ValidRegs() {
		t.Error("out-of-bounds source register accepted")
	}
	// An unused source field may hold garbage (MOV ignores Rs2).
	unused := Instruction{Op: OpMOV, Rd: 0, Rs1: 1, Rs2: 200}
	if !unused.ValidRegs() {
		t.Error("garbage in unused operand field should be ignored")
	}
}

func TestPredicateEncoding(t *testing.T) {
	in := Instruction{Op: OpBRA, Pred: 0x3, Imm: 10}
	if in.Unconditional() {
		t.Error("@P3 BRA must not be unconditional")
	}
	if in.PredIndex() != 3 || in.PredNegated() {
		t.Errorf("predicate decode wrong: idx=%d neg=%v", in.PredIndex(), in.PredNegated())
	}
	neg := Instruction{Op: OpBRA, Pred: 0x8 | 0x2, Imm: 10}
	if !neg.PredNegated() || neg.PredIndex() != 2 {
		t.Error("negated predicate decode wrong")
	}
	uncond := Instruction{Op: OpBRA, Pred: PT, Imm: 10}
	if !uncond.Unconditional() {
		t.Error("@PT must be unconditional")
	}
}

func TestSImmSignExtension(t *testing.T) {
	in := Instruction{Op: OpMOV32I, Imm: 0xFFFF}
	if in.SImm() != -1 {
		t.Errorf("SImm(0xFFFF) = %d, want -1", in.SImm())
	}
	in.Imm = 0x7FFF
	if in.SImm() != 32767 {
		t.Errorf("SImm(0x7FFF) = %d, want 32767", in.SImm())
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpIADD, Pred: PT, Rd: 1, Rs1: 2, Rs2: 3}, "IADD R1, R2, R3"},
		{Instruction{Op: OpGLD, Pred: PT, Rd: 4, Rs1: 5, Imm: 8}, "GLD R4, [R5+8]"},
		{Instruction{Op: OpBRA, Pred: 0x1, Imm: 7}, "@P1 BRA 7"},
		{Instruction{Op: OpEXIT, Pred: PT}, "EXIT"},
		{Instruction{Op: OpS2R, Pred: PT, Rd: 0, Imm: SRTidX}, "S2R R0, SR_TID.X"},
		{Instruction{Op: OpISETP, Pred: PT, Rd: 2, Rs1: 1, Rs2: RZ, Flags: uint8(CmpLT)}, "ISETP.LT P2, R1, RZ"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestInvalidOpcodeString(t *testing.T) {
	bad := Opcode(0xEE)
	if bad.String() != "INVALID(0xee)" {
		t.Errorf("invalid opcode string = %q", bad.String())
	}
}

func TestImmediateAndMemoryClassification(t *testing.T) {
	if !OpGLD.IsMemory() || !OpSTS.IsMemory() || OpIADD.IsMemory() {
		t.Error("IsMemory misclassifies")
	}
	if !OpSTS.IsSharedMem() || OpGLD.IsSharedMem() {
		t.Error("IsSharedMem misclassifies")
	}
	if !OpMOV32I.HasImmediate() || OpIADD.HasImmediate() {
		t.Error("HasImmediate misclassifies")
	}
}

func TestDecodeArbitraryWordsNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		w := Word(rng.Uint64())
		in := Decode(w)
		_ = in.String()
		_ = in.ValidRegs()
		_ = in.Op.Unit()
	}
}
