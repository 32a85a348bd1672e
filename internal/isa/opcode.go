// Package isa defines the SASS-like instruction set architecture executed by
// the GPU functional simulator and decoded by the gate-level decoder unit.
//
// The ISA is modelled after the G80 generation implemented by FlexGripPlus
// (the open-source GPU model used for the paper's gate-level
// characterization): fixed-width 64-bit instructions, a per-thread register
// file, predicate registers, explicit special-register reads (S2R) for
// thread/CTA indexing, and separate global/shared/constant memory spaces.
package isa

import "fmt"

// Opcode identifies an instruction operation. The zero value is OpNOP so a
// zeroed instruction word is harmless.
type Opcode uint8

// Instruction opcodes. The numeric values are part of the binary encoding:
// permanent faults in the fetch/decoder units flip bits of these values, so
// neighbouring encodings determine which "incorrect operation" (IOC) an
// "invalid operation" (IVOC) a corrupted instruction becomes.
const (
	OpNOP Opcode = iota

	// Integer arithmetic (INT unit).
	OpIADD
	OpISUB
	OpIMUL
	OpIMAD
	OpIMIN
	OpIMAX
	OpIAND
	OpIOR
	OpIXOR
	OpSHL
	OpSHR

	// Floating point arithmetic (FP32 unit).
	OpFADD
	OpFSUB
	OpFMUL
	OpFFMA
	OpFMIN
	OpFMAX

	// Special function unit (SFU).
	OpFSIN
	OpFEXP
	OpFRCP
	OpFSQRT

	// Conversions (INT/FP32 units).
	OpI2F
	OpF2I

	// Data movement.
	OpMOV    // Rd <- Rs1
	OpMOV32I // Rd <- imm (sign-extended 16-bit immediate)
	OpS2R    // Rd <- special register selected by imm
	OpSEL    // Rd <- pred ? Rs1 : Rs2

	// Memory.
	OpGLD // Rd <- global[Rs1 + imm]
	OpGST // global[Rs1 + imm] <- Rs2
	OpLDS // Rd <- shared[Rs1 + imm]
	OpSTS // shared[Rs1 + imm] <- Rs2
	OpLDC // Rd <- const[Rs1 + imm] (kernel parameters live here)

	// Predicates and control flow.
	OpISETP // Pd <- Rs1 cmp Rs2 (comparison selected by flags)
	OpFSETP // Pd <- Rs1 cmp Rs2 (float compare)
	OpPSETP // Pd <- Ps1 logicop Ps2
	OpBRA   // branch to imm (absolute instruction index), predicated
	OpBAR   // CTA-wide barrier
	OpEXIT  // thread exit

	opcodeCount // number of valid opcodes; all encodings >= this are invalid
)

// Count reports the number of valid opcodes. Encodings in
// [Count, 255] are invalid and raise an illegal-instruction trap (the IVOC
// error model).
func Count() int { return int(opcodeCount) }

var opcodeNames = [...]string{
	OpNOP:  "NOP",
	OpIADD: "IADD", OpISUB: "ISUB", OpIMUL: "IMUL", OpIMAD: "IMAD",
	OpIMIN: "IMIN", OpIMAX: "IMAX",
	OpIAND: "IAND", OpIOR: "IOR", OpIXOR: "IXOR", OpSHL: "SHL", OpSHR: "SHR",
	OpFADD: "FADD", OpFSUB: "FSUB", OpFMUL: "FMUL", OpFFMA: "FFMA",
	OpFMIN: "FMIN", OpFMAX: "FMAX",
	OpFSIN: "FSIN", OpFEXP: "FEXP", OpFRCP: "FRCP", OpFSQRT: "FSQRT",
	OpI2F: "I2F", OpF2I: "F2I",
	OpMOV: "MOV", OpMOV32I: "MOV32I", OpS2R: "S2R", OpSEL: "SEL",
	OpGLD: "GLD", OpGST: "GST", OpLDS: "LDS", OpSTS: "STS", OpLDC: "LDC",
	OpISETP: "ISETP", OpFSETP: "FSETP", OpPSETP: "PSETP",
	OpBRA: "BRA", OpBAR: "BAR", OpEXIT: "EXIT",
}

// Valid reports whether the opcode is a defined instruction.
func (op Opcode) Valid() bool { return op < opcodeCount }

func (op Opcode) String() string {
	if op.Valid() {
		return opcodeNames[op]
	}
	return fmt.Sprintf("INVALID(%#x)", uint8(op))
}

// UnitClass identifies the functional unit an instruction executes on. The
// paper's fault-injection campaigns separate functional units (FP32, INT,
// SFU) from the parallelism management units (scheduler, fetch, decoder).
type UnitClass uint8

const (
	UnitNone UnitClass = iota // NOP, EXIT, BAR
	UnitINT                   // integer ALU
	UnitFP32                  // floating point unit
	UnitSFU                   // special function unit (shared per PPB)
	UnitMEM                   // load/store unit
	UnitCTRL                  // branch / predicate-set
)

var unitNames = [...]string{
	UnitNone: "NONE", UnitINT: "INT", UnitFP32: "FP32",
	UnitSFU: "SFU", UnitMEM: "MEM", UnitCTRL: "CTRL",
}

func (u UnitClass) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("UnitClass(%d)", uint8(u))
}

// Unit reports the functional unit class that executes the opcode.
func (op Opcode) Unit() UnitClass {
	switch op {
	case OpIADD, OpISUB, OpIMUL, OpIMAD, OpIMIN, OpIMAX,
		OpIAND, OpIOR, OpIXOR, OpSHL, OpSHR, OpF2I,
		OpMOV, OpMOV32I, OpS2R, OpSEL:
		return UnitINT
	case OpFADD, OpFSUB, OpFMUL, OpFFMA, OpFMIN, OpFMAX, OpI2F:
		return UnitFP32
	case OpFSIN, OpFEXP, OpFRCP, OpFSQRT:
		return UnitSFU
	case OpGLD, OpGST, OpLDS, OpSTS, OpLDC:
		return UnitMEM
	case OpISETP, OpFSETP, OpPSETP, OpBRA:
		return UnitCTRL
	default:
		return UnitNone
	}
}

// IsMemory reports whether the opcode accesses a memory space.
func (op Opcode) IsMemory() bool {
	switch op {
	case OpGLD, OpGST, OpLDS, OpSTS, OpLDC:
		return true
	}
	return false
}

// IsSharedMem reports whether the opcode accesses shared memory.
func (op Opcode) IsSharedMem() bool { return op == OpLDS || op == OpSTS }

// WritesReg reports whether the opcode writes a destination register.
func (op Opcode) WritesReg() bool {
	switch op {
	case OpNOP, OpGST, OpSTS, OpBRA, OpBAR, OpEXIT, OpISETP, OpFSETP, OpPSETP:
		return false
	}
	return true
}

// HasImmediate reports whether the imm field is an operand of the opcode
// (as opposed to unused). Branch targets, memory offsets and MOV32I all use
// the immediate field; the Incorrect Immediate Operand (IIO) error model
// targets these instructions.
func (op Opcode) HasImmediate() bool {
	switch op {
	case OpMOV32I, OpS2R, OpGLD, OpGST, OpLDS, OpSTS, OpLDC, OpBRA,
		OpSHL, OpSHR:
		return true
	}
	return false
}

// SrcRegs reports how many source register operands the opcode reads.
func (op Opcode) SrcRegs() int {
	switch op {
	case OpNOP, OpMOV32I, OpS2R, OpBAR, OpEXIT, OpBRA, OpPSETP:
		return 0
	case OpMOV, OpGLD, OpLDS, OpLDC, OpI2F, OpF2I, OpFSIN, OpFEXP,
		OpFRCP, OpFSQRT:
		return 1
	case OpIADD, OpISUB, OpIMUL, OpIMIN, OpIMAX, OpIAND, OpIOR, OpIXOR,
		OpSHL, OpSHR, OpFADD, OpFSUB, OpFMUL, OpFMIN, OpFMAX,
		OpGST, OpSTS, OpISETP, OpFSETP, OpSEL:
		return 2
	case OpIMAD, OpFFMA:
		return 3
	}
	return 0
}
