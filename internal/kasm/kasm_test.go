package kasm

import (
	"strings"
	"testing"

	"gpufaultsim/internal/isa"
)

// at decodes the instruction at index i of p.
func at(p *Program, i int) isa.Instruction { return isa.Decode(p.Code[i]) }

func TestForwardAndBackwardLabels(t *testing.T) {
	b := New("labels")
	b.Label("top")
	b.MOVI(0, 1)
	b.BRA("end") // forward reference
	b.BRA("top") // backward reference
	b.Label("end").EXIT()
	p := b.MustBuild()
	if at(p, 1).Imm != 3 {
		t.Errorf("forward branch target = %d, want 3", at(p, 1).Imm)
	}
	if at(p, 2).Imm != 0 {
		t.Errorf("backward branch target = %d, want 0", at(p, 2).Imm)
	}
}

func TestUndefinedLabelError(t *testing.T) {
	_, err := New("bad").BRA("nowhere").Build()
	if err == nil || !strings.Contains(err.Error(), `undefined label "nowhere"`) {
		t.Fatalf("Build with undefined label: err = %v", err)
	}
}

func TestDuplicateLabelError(t *testing.T) {
	_, err := New("dup").Label("a").Label("a").EXIT().Build()
	if err == nil || !strings.Contains(err.Error(), `duplicate label "a"`) {
		t.Fatalf("Build with duplicate label: err = %v", err)
	}
}

func TestMOVIRangeError(t *testing.T) {
	_, err := New("movi").MOVI(0, 1<<20).Build()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Build with out-of-range MOVI: err = %v", err)
	}
}

func TestBuildJoinsAllErrors(t *testing.T) {
	_, err := New("multi").Label("a").Label("a").MOVI(0, 1<<20).BRA("gone").Build()
	if err == nil {
		t.Fatal("Build on triply-broken program succeeded")
	}
	for _, want := range []string{"duplicate label", "out of range", "undefined label"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild with undefined label did not panic")
		}
	}()
	New("bad").BRA("nowhere").MustBuild()
}

func TestPredicateAppliesToNextInstructionOnly(t *testing.T) {
	b := New("pred")
	b.P(2).MOVI(0, 1)
	b.MOVI(1, 2)
	p := b.MustBuild()
	if at(p, 0).PredIndex() != 2 || at(p, 0).Unconditional() {
		t.Error("P(2) not applied to first instruction")
	}
	if !at(p, 1).Unconditional() {
		t.Error("predicate leaked to second instruction")
	}
}

func TestPNotSetsNegation(t *testing.T) {
	p := New("pnot").PNot(1).MOVI(0, 5).MustBuild()
	in := at(p, 0)
	if !in.PredNegated() || in.PredIndex() != 1 {
		t.Errorf("PNot encoding wrong: %+v", in)
	}
}

func TestParamSugar(t *testing.T) {
	p := New("param").Param(3, 2).MustBuild()
	in := at(p, 0)
	if in.Op != isa.OpLDC || in.Rd != 3 || in.Rs1 != isa.RZ || in.SImm() != 2 {
		t.Errorf("Param encoding wrong: %v", in)
	}
}

func TestNegativeMemoryOffsets(t *testing.T) {
	p := New("neg").GLD(0, 1, -4).MustBuild()
	if at(p, 0).SImm() != -4 {
		t.Errorf("negative offset = %d, want -4", at(p, 0).SImm())
	}
}

func TestGlobalThreadIdXSequence(t *testing.T) {
	p := New("gid").GlobalThreadIdX(0, 1).MustBuild()
	ops := []isa.Opcode{isa.OpS2R, isa.OpS2R, isa.OpIMUL, isa.OpS2R, isa.OpIADD}
	if p.Len() != len(ops) {
		t.Fatalf("GlobalThreadIdX emitted %d instructions, want %d", p.Len(), len(ops))
	}
	for i, op := range ops {
		if at(p, i).Op != op {
			t.Errorf("instr %d = %v, want %v", i, at(p, i).Op, op)
		}
	}
}

func TestAllMnemonicHelpersEncodeTheirOpcode(t *testing.T) {
	b := New("all")
	b.IADD(0, 1, 2).ISUB(0, 1, 2).IMUL(0, 1, 2).IMIN(0, 1, 2).IMAX(0, 1, 2)
	b.IAND(0, 1, 2).IXOR(0, 1, 2)
	b.FADD(0, 1, 2).FSUB(0, 1, 2).FMUL(0, 1, 2).FMAX(0, 1, 2)
	b.FFMA(0, 1, 2, 3)
	b.FSIN(0, 1).FEXP(0, 1).FRCP(0, 1).FSQRT(0, 1).I2F(0, 1).MOV(0, 1)
	b.SHL(0, 1, 2).SHR(0, 1, 2)
	b.GLD(0, 1, 0).GST(1, 0, 2).LDS(0, 1, 0).STS(1, 0, 2).LDC(0, 1, 0)
	b.ISETP(isa.CmpEQ, 0, 1, 2)
	b.S2R(0, isa.SRTidX).BAR().EXIT()
	p := b.MustBuild()
	want := []isa.Opcode{
		isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMIN, isa.OpIMAX,
		isa.OpIAND, isa.OpIXOR,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMAX,
		isa.OpFFMA,
		isa.OpFSIN, isa.OpFEXP, isa.OpFRCP, isa.OpFSQRT, isa.OpI2F, isa.OpMOV,
		isa.OpSHL, isa.OpSHR,
		isa.OpGLD, isa.OpGST, isa.OpLDS, isa.OpSTS, isa.OpLDC,
		isa.OpISETP,
		isa.OpS2R, isa.OpBAR, isa.OpEXIT,
	}
	if p.Len() != len(want) {
		t.Fatalf("program has %d instructions, want %d", p.Len(), len(want))
	}
	for i, op := range want {
		if at(p, i).Op != op {
			t.Errorf("instr %d: got %v, want %v", i, at(p, i).Op, op)
		}
	}
}
