// Package kasm provides a small assembler ("kernel asm") for building GPU
// programs in Go. All evaluation workloads and micro-benchmarks are written
// against this builder, playing the role the CUDA toolchain plays in the
// paper's software stack.
//
// The builder supports forward label references, predicated emission, and a
// handful of composite helpers (thread-index computation, bounds guards)
// that keep kernel sources compact.
package kasm

import (
	"fmt"
	"strings"

	"gpufaultsim/internal/isa"
)

// Program is an assembled kernel: a flat slice of instruction words plus
// metadata used by launches.
type Program struct {
	Name string
	Code []isa.Word
}

// Len reports the number of instructions in the program.
func (p *Program) Len() int { return len(p.Code) }

type fixup struct {
	index int    // instruction to patch
	label string // target label
}

// Builder assembles a Program instruction by instruction.
//
// Register allocation is the caller's business: helpers return isa register
// numbers. Malformed programs (duplicate labels, undefined labels,
// out-of-range immediates) are recorded as the chain is built and surface
// as a single error from Build — mirroring the netlist Builder — so
// chained emission never panics mid-construction. MustBuild keeps the
// fail-fast behavior for setup-time construction.
type Builder struct {
	name   string
	code   []isa.Instruction
	labels map[string]int
	fixups []fixup
	pred   uint8 // predicate applied to the next emitted instruction
	errs   []string
}

// New returns a Builder for a kernel with the given name.
func New(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int), pred: isa.PT}
}

// errorf records a build error; the chain keeps going so callers see
// every defect from one Build call.
func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errorf("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

// P sets the guard predicate for the next emitted instruction only.
func (b *Builder) P(pred int) *Builder {
	b.pred = uint8(pred & 0x7)
	return b
}

// PNot sets the negated guard predicate for the next emitted instruction.
func (b *Builder) PNot(pred int) *Builder {
	b.pred = uint8(pred&0x7) | 0x8
	return b
}

func (b *Builder) emit(in isa.Instruction) *Builder {
	in.Pred = b.pred
	b.pred = isa.PT
	b.code = append(b.code, in)
	return b
}

// Build resolves fixups and returns the finished Program. Defects
// recorded during emission (duplicate labels, out-of-range immediates)
// and unresolved branch targets are joined into one error.
func (b *Builder) Build() (*Program, error) {
	errs := b.errs
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			errs = append(errs, fmt.Sprintf("undefined label %q", f.label))
			continue
		}
		b.code[f.index].Imm = uint16(target)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("kasm: %s: %s", b.name, strings.Join(errs, "; "))
	}
	p := &Program{Name: b.name, Code: make([]isa.Word, len(b.code))}
	for i, in := range b.code {
		p.Code[i] = in.Encode()
	}
	return p, nil
}

// MustBuild is Build for setup-time construction: it panics on a
// malformed program. The workload kernels use it — their sources are
// fixed at compile time, so fail-fast is the right trade-off.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// --- raw emit helpers -------------------------------------------------

// Op3 emits a three-source-register instruction (IMAD, FFMA).
func (b *Builder) Op3(op isa.Opcode, rd, ra, rb, rc int) *Builder {
	return b.emit(isa.Instruction{Op: op, Rd: uint8(rd), Rs1: uint8(ra),
		Rs2: uint8(rb), Rs3: uint8(rc)})
}

// Op2 emits a two-source-register instruction (IADD, FMUL, ...).
func (b *Builder) Op2(op isa.Opcode, rd, ra, rb int) *Builder {
	return b.emit(isa.Instruction{Op: op, Rd: uint8(rd), Rs1: uint8(ra),
		Rs2: uint8(rb)})
}

// Op1 emits a single-source instruction (MOV, FSIN, I2F, ...).
func (b *Builder) Op1(op isa.Opcode, rd, ra int) *Builder {
	return b.emit(isa.Instruction{Op: op, Rd: uint8(rd), Rs1: uint8(ra)})
}

// --- mnemonic helpers --------------------------------------------------

func (b *Builder) IADD(rd, ra, rb int) *Builder { return b.Op2(isa.OpIADD, rd, ra, rb) }
func (b *Builder) ISUB(rd, ra, rb int) *Builder { return b.Op2(isa.OpISUB, rd, ra, rb) }
func (b *Builder) IMUL(rd, ra, rb int) *Builder { return b.Op2(isa.OpIMUL, rd, ra, rb) }
func (b *Builder) IMIN(rd, ra, rb int) *Builder { return b.Op2(isa.OpIMIN, rd, ra, rb) }
func (b *Builder) IMAX(rd, ra, rb int) *Builder { return b.Op2(isa.OpIMAX, rd, ra, rb) }
func (b *Builder) IAND(rd, ra, rb int) *Builder { return b.Op2(isa.OpIAND, rd, ra, rb) }
func (b *Builder) IXOR(rd, ra, rb int) *Builder { return b.Op2(isa.OpIXOR, rd, ra, rb) }
func (b *Builder) FADD(rd, ra, rb int) *Builder { return b.Op2(isa.OpFADD, rd, ra, rb) }
func (b *Builder) FSUB(rd, ra, rb int) *Builder { return b.Op2(isa.OpFSUB, rd, ra, rb) }
func (b *Builder) FMUL(rd, ra, rb int) *Builder { return b.Op2(isa.OpFMUL, rd, ra, rb) }
func (b *Builder) FMAX(rd, ra, rb int) *Builder { return b.Op2(isa.OpFMAX, rd, ra, rb) }

func (b *Builder) FFMA(rd, ra, rb, rc int) *Builder { return b.Op3(isa.OpFFMA, rd, ra, rb, rc) }

func (b *Builder) FSIN(rd, ra int) *Builder  { return b.Op1(isa.OpFSIN, rd, ra) }
func (b *Builder) FEXP(rd, ra int) *Builder  { return b.Op1(isa.OpFEXP, rd, ra) }
func (b *Builder) FRCP(rd, ra int) *Builder  { return b.Op1(isa.OpFRCP, rd, ra) }
func (b *Builder) FSQRT(rd, ra int) *Builder { return b.Op1(isa.OpFSQRT, rd, ra) }
func (b *Builder) I2F(rd, ra int) *Builder   { return b.Op1(isa.OpI2F, rd, ra) }
func (b *Builder) MOV(rd, ra int) *Builder   { return b.Op1(isa.OpMOV, rd, ra) }

// MOVI loads a signed 16-bit immediate into rd.
func (b *Builder) MOVI(rd int, imm int) *Builder {
	if imm < -32768 || imm > 32767 {
		b.errorf("MOVI immediate %d out of range", imm)
		imm = 0
	}
	return b.emit(isa.Instruction{Op: isa.OpMOV32I, Rd: uint8(rd), Imm: uint16(int16(imm))})
}

// S2R reads special register sr into rd.
func (b *Builder) S2R(rd int, sr uint16) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpS2R, Rd: uint8(rd), Imm: sr})
}

// SHL/SHR shift ra by an immediate count.
func (b *Builder) SHL(rd, ra, count int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSHL, Rd: uint8(rd), Rs1: uint8(ra), Imm: uint16(count)})
}
func (b *Builder) SHR(rd, ra, count int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSHR, Rd: uint8(rd), Rs1: uint8(ra), Imm: uint16(count)})
}

// Memory ops: address = R[ra] + offset (word-addressed).
func (b *Builder) GLD(rd, ra, offset int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpGLD, Rd: uint8(rd), Rs1: uint8(ra), Imm: uint16(int16(offset))})
}
func (b *Builder) GST(ra, offset, rs int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpGST, Rs1: uint8(ra), Rs2: uint8(rs), Imm: uint16(int16(offset))})
}
func (b *Builder) LDS(rd, ra, offset int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpLDS, Rd: uint8(rd), Rs1: uint8(ra), Imm: uint16(int16(offset))})
}
func (b *Builder) STS(ra, offset, rs int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSTS, Rs1: uint8(ra), Rs2: uint8(rs), Imm: uint16(int16(offset))})
}

// LDC loads kernel parameter word at constant-memory index (R[ra]+offset).
// Use ra = isa.RZ with a literal offset for fixed parameter slots.
func (b *Builder) LDC(rd, ra, offset int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpLDC, Rd: uint8(rd), Rs1: uint8(ra), Imm: uint16(int16(offset))})
}

// Param loads kernel parameter slot i into rd (sugar over LDC).
func (b *Builder) Param(rd, i int) *Builder { return b.LDC(rd, isa.RZ, i) }

// ISETP compares ra with rb and writes predicate pd.
func (b *Builder) ISETP(cmp isa.CmpOp, pd, ra, rb int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpISETP, Rd: uint8(pd & 0x7),
		Rs1: uint8(ra), Rs2: uint8(rb), Flags: uint8(cmp)})
}

// PSETP combines two predicates into pd. The logic op rides in the Cmp
// flags field: CmpEQ = AND, CmpNE = XOR, anything else = OR.
func (b *Builder) PSETP(logic isa.CmpOp, pd, pa, pb int) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpPSETP, Rd: uint8(pd & 0x7),
		Rs1: uint8(pa & 0x7), Rs2: uint8(pb & 0x7), Flags: uint8(logic)})
}

// BRA branches to a label (subject to the pending guard predicate).
func (b *Builder) BRA(label string) *Builder {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label})
	return b.emit(isa.Instruction{Op: isa.OpBRA})
}

func (b *Builder) BAR() *Builder  { return b.emit(isa.Instruction{Op: isa.OpBAR}) }
func (b *Builder) EXIT() *Builder { return b.emit(isa.Instruction{Op: isa.OpEXIT}) }

// --- composite helpers --------------------------------------------------

// GlobalThreadIdX computes the linear thread id
// (ctaid.x*ntid.x + tid.x) into rd, using rt as scratch.
func (b *Builder) GlobalThreadIdX(rd, rt int) *Builder {
	b.S2R(rd, isa.SRCtaidX)
	b.S2R(rt, isa.SRNTidX)
	b.IMUL(rd, rd, rt)
	b.S2R(rt, isa.SRTidX)
	return b.IADD(rd, rd, rt)
}

// GuardGE emits "if R[ra] >= R[rb] goto label" using predicate p.
func (b *Builder) GuardGE(p, ra, rb int, label string) *Builder {
	b.ISETP(isa.CmpGE, p, ra, rb)
	return b.P(p).BRA(label)
}

// LoopLT emits the back-edge "if R[ra] < R[rb] goto label" using predicate p.
func (b *Builder) LoopLT(p, ra, rb int, label string) *Builder {
	b.ISETP(isa.CmpLT, p, ra, rb)
	return b.P(p).BRA(label)
}
