// Package errmodel defines the 13 instruction-level permanent error models
// that the paper derives from gate-level fault injection in the GPU's warp
// scheduler controller (WSC), fetch and decoder units, together with the
// error descriptor that links a hardware defect to the threads/warps of a
// running application.
package errmodel

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/isa"
)

// Model identifies one of the paper's instruction-level error categories.
type Model int

const (
	// Operation errors.
	IOC  Model = iota // Incorrect Operation Code: valid but wrong operation
	IVOC              // Invalid Operation Code: undefined opcode (always DUE)
	IRA               // Incorrect Register Addressed: wrong but valid register
	IVRA              // Invalid Register Addressed: register out of bounds
	IIO               // Incorrect Immediate Operand

	// Control-flow errors.
	WV // Work-flow Violation: corrupted predicate writes

	// Parallel management errors.
	IPP // Incorrect Parallel Parameter: wrong shared warp resources
	IAT // Incorrect Active Thread: threads wrongly enabled/disabled
	IAW // Incorrect Active Warp: warp wrongly detained/substituted
	IAC // Incorrect Active CTA: block wrongly detained/assigned

	// Resource management errors.
	IAL // Incorrect Active Lane: core lanes wrongly enabled/disabled
	IMS // Incorrect Memory Source: wrong memory resource for loads
	IMD // Incorrect Memory Destination: wrong memory resource for stores

	modelCount
)

// Count is the number of defined error models (13).
const Count = int(modelCount)

// spec is what one error model is, apart from its error function: the
// specs table states it once for every model.
type spec struct {
	name       string
	group      Group
	warpWide   bool // corrupts every thread of an affected warp
	injectable bool // evaluated by the software campaigns
	locs       int  // ErrOperLoc values the model tells apart
}

// specs follows the paper: IOC, IVOC, IRA, IVRA, IPP and IAW corrupt every
// thread of a warp, the rest one or a few threads. IPP is not injected
// because its effects are realised by IRA/IVRA/IMS/IMD/IAT/IAW, and IVOC
// because it deterministically raises an illegal-instruction DUE.
var specs = [Count]spec{
	IOC:  {"IOC", GroupOperation, true, true, 1},
	IVOC: {"IVOC", GroupOperation, true, false, 1},
	IRA:  {"IRA", GroupOperation, true, true, 4},
	IVRA: {"IVRA", GroupOperation, true, true, 4},
	IIO:  {"IIO", GroupOperation, false, true, 1},
	WV:   {"WV", GroupControlFlow, false, true, 1},
	IPP:  {"IPP", GroupParallelMgmt, true, false, 1},
	IAT:  {"IAT", GroupParallelMgmt, false, true, 1},
	IAW:  {"IAW", GroupParallelMgmt, true, true, 1},
	IAC:  {"IAC", GroupParallelMgmt, false, true, 2},
	IAL:  {"IAL", GroupResourceMgmt, false, true, 2},
	IMS:  {"IMS", GroupResourceMgmt, false, true, 1},
	IMD:  {"IMD", GroupResourceMgmt, false, true, 2},
}

func (m Model) String() string {
	if m >= 0 && int(m) < Count {
		return specs[m].name
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ParseModel returns the model with the given name.
func ParseModel(name string) (Model, error) {
	for i, s := range specs {
		if s.name == name {
			return Model(i), nil
		}
	}
	return 0, fmt.Errorf("errmodel: unknown model %q", name)
}

// Group reports the category of the model.
func (m Model) Group() Group { return specs[m].group }

// WarpWide reports whether the model corrupts every thread of an affected
// warp as opposed to one or a few threads per warp.
func (m Model) WarpWide() bool { return specs[m].warpWide }

// Locs is the number of ErrOperLoc values the model tells apart: 4 for
// IRA/IVRA (destination, three sources), 2 for IAC, IAL and IMD, 1 for the
// rest. A descriptor's ErrOperLoc lies in [0, Locs).
func (m Model) Locs() int { return specs[m].locs }

// All returns the 13 error models.
func All() []Model {
	out := make([]Model, Count)
	for i := range out {
		out[i] = Model(i)
	}
	return out
}

// Injectable returns the 11 models evaluated by the software campaigns.
func Injectable() []Model {
	var out []Model
	for _, m := range All() {
		if specs[m].injectable {
			out = append(out, m)
		}
	}
	return out
}

// Group is one of the four top-level error categories.
type Group int

const (
	GroupOperation Group = iota
	GroupControlFlow
	GroupParallelMgmt
	GroupResourceMgmt
)

var groupNames = [...]string{
	"Operation", "Control-flow", "Parallel management", "Resource management",
}

func (g Group) String() string {
	if int(g) < len(groupNames) {
		return groupNames[g]
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Groups returns the four groups in presentation order.
func Groups() []Group {
	return []Group{GroupOperation, GroupControlFlow, GroupParallelMgmt, GroupResourceMgmt}
}

// Descriptor links a permanent hardware defect to the portion of a
// parallel application it corrupts. Fields mirror the paper's error
// descriptor: SM, sub-partition, warp set, thread set, plus model-specific
// parameters (bit mask, operand position, replacement opcode).
type Descriptor struct {
	Model Model

	SM  int // target streaming multiprocessor
	PPB int // target sub-partition within the SM

	// Warps holds warp slots (IDs within the SM) bound to the faulty
	// sub-partition where the error manifests.
	Warps []int
	// Threads is the lane mask within each affected warp.
	Threads uint32

	// BitErrMask is XORed into the corrupted field (register number,
	// destination value, predicate, or thread index depending on Model).
	BitErrMask uint32
	// ErrOperLoc selects the corrupted operand or mode, in
	// [0, Model.Locs()): 0 = destination, 1..3 = source position
	// (IRA/IVRA); for IMD 0 = data register, 1 = address register; for
	// IAL 0 = disable lane, 1 = force-enable; for IAC 0 = block index,
	// 1 = detention.
	ErrOperLoc int
	// ReplOp is the replacement operation executed by IOC.
	ReplOp isa.Opcode
}

// TargetsWarp reports whether warp slot w on (sm, ppb) is affected.
func (d *Descriptor) TargetsWarp(sm, ppb, w int) bool {
	if sm != d.SM || ppb != d.PPB {
		return false
	}
	for _, tw := range d.Warps {
		if tw == w {
			return true
		}
	}
	return false
}

// Eligible reports whether the model's error function can act on in, the
// instruction a targeted warp issues: the one statement of which
// instructions each model touches. It is necessary, not sufficient: IAL's
// force-enable acts only on lanes whose guard fails.
func (d *Descriptor) Eligible(in isa.Instruction) bool {
	switch d.Model {
	case IOC:
		return coreOp(in) && in.Op.SrcRegs() >= 2
	case IVOC:
		return true // the faulty unit presents an undefined opcode
	case IRA, IVRA:
		if d.ErrOperLoc == 0 {
			return in.Op.WritesReg() && in.Rd != isa.RZ
		}
		reg, ok := SrcOperand(in, d.ErrOperLoc)
		return ok && reg != isa.RZ
	case IIO:
		return in.Op.HasImmediate() && in.Op.WritesReg() && in.Rd != isa.RZ
	case WV:
		return (in.Op == isa.OpISETP || in.Op == isa.OpFSETP || in.Op == isa.OpPSETP) &&
			in.DestPred() == int(d.BitErrMask)%isa.NumPredicates
	case IAT, IAW:
		return in.Op == isa.OpS2R && in.Imm <= isa.SRTidZ && in.Rd != isa.RZ
	case IAC:
		// Detention (ErrOperLoc 1) holds the block at any instruction.
		return d.ErrOperLoc == 1 || in.Op == isa.OpS2R && in.Imm >= isa.SRCtaidX &&
			in.Imm <= isa.SRCtaidZ && in.Rd != isa.RZ
	case IAL:
		if !coreOp(in) {
			return false
		}
		if d.ErrOperLoc == 0 {
			return in.Rd != isa.RZ
		}
		return !in.Unconditional()
	case IMS:
		return (in.Op == isa.OpLDS || in.Op == isa.OpLDC) && in.Rd != isa.RZ
	case IMD:
		return in.Op == isa.OpSTS && d.StoreReg(in) != isa.RZ
	}
	return false // IPP acts through the other models
}

// coreOp reports whether in is register-writing work of an integer or
// floating point core lane.
func coreOp(in isa.Instruction) bool {
	u := in.Op.Unit()
	return (u == isa.UnitINT || u == isa.UnitFP32) && in.Op.WritesReg()
}

// StoreReg is the register of STS in that IMD corrupts: the address
// register for ErrOperLoc 1, the data register otherwise.
func (d *Descriptor) StoreReg(in isa.Instruction) uint8 {
	if d.ErrOperLoc == 1 {
		return in.Rs1
	}
	return in.Rs2
}

// SrcOperand returns the source register at position loc (1-based), or
// (0, false) when the instruction has no such operand.
func SrcOperand(in isa.Instruction, loc int) (uint8, bool) {
	if loc < 1 || loc > in.Op.SrcRegs() {
		return 0, false
	}
	switch loc {
	case 1:
		return in.Rs1, true
	case 2:
		return in.Rs2, true
	default:
		return in.Rs3, true
	}
}

// intReplacements and fpReplacements are the candidate IOC substitutions
// per issuing unit, mirroring "replacing them with any other operation".
var intReplacements = []isa.Opcode{
	isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIAND, isa.OpIOR, isa.OpIXOR,
	isa.OpIMIN, isa.OpIMAX,
}

var fpReplacements = []isa.Opcode{
	isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMIN, isa.OpFMAX,
}

// Replacement is the operation IOC executes in place of orig: ReplOp for
// an integer instruction and the FP32 candidate at ReplOp's index for a
// floating point one, never orig itself.
func (d *Descriptor) Replacement(orig isa.Opcode) isa.Opcode {
	if orig.Unit() == isa.UnitFP32 {
		op := fpReplacements[int(d.ReplOp)%len(fpReplacements)]
		if op == orig {
			op = fpReplacements[(int(d.ReplOp)+1)%len(fpReplacements)]
		}
		return op
	}
	op := d.ReplOp
	if op == orig {
		op = isa.OpIXOR
		if orig == isa.OpIXOR {
			op = isa.OpIADD
		}
	}
	return op
}

// Random builds a random descriptor for the model, targeting one
// sub-partition of SM0 as in the paper's campaigns. maxWarps bounds the
// warp-slot universe (the device's resident-warp capacity), ppbs the
// sub-partition count.
func Random(m Model, rng *rand.Rand, maxWarps, ppbs int) Descriptor {
	d := Descriptor{Model: m, SM: 0, PPB: rng.Intn(ppbs)}

	// Pick 1 or 2 warp slots bound to the target PPB.
	slots := make([]int, 0, maxWarps)
	for w := 0; w < maxWarps; w++ {
		if w%ppbs == d.PPB {
			slots = append(slots, w)
		}
	}
	nw := 1 + rng.Intn(2)
	perm := rng.Perm(len(slots))
	for i := 0; i < nw && i < len(slots); i++ {
		d.Warps = append(d.Warps, slots[perm[i]])
	}

	if m.WarpWide() {
		d.Threads = 0xFFFFFFFF
	} else {
		// One to four lanes, never the full warp; IAT keeps at least one
		// thread active by construction.
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			d.Threads |= 1 << rng.Intn(isa.WarpSize)
		}
	}

	switch m {
	case IRA, IVRA:
		d.ErrOperLoc = rng.Intn(m.Locs())
		if m == IRA {
			// Flip low register-number bits only: the corrupted address
			// stays within the per-thread budget.
			d.BitErrMask = uint32(1 + rng.Intn(int(isa.RegsPerThread-1)))
		} else {
			// Set a bit above the budget so the address is invalid.
			d.BitErrMask = uint32(isa.RegsPerThread << rng.Intn(2))
		}
	case IOC:
		// ReplOp resolved per-instruction class at injection time; keep a
		// seed-stable sample for both unit classes.
		d.ReplOp = intReplacements[rng.Intn(len(intReplacements))]
		d.BitErrMask = rng.Uint32()
	case IIO, IMS:
		d.BitErrMask = 1 << rng.Intn(32)
	case IMD:
		d.ErrOperLoc = rng.Intn(m.Locs())
		if d.ErrOperLoc == 1 {
			// Address corruption: flip a low bit so the store lands on a
			// wrong (usually still valid) shared location.
			d.BitErrMask = 1 << rng.Intn(4)
		} else {
			d.BitErrMask = 1 << rng.Intn(32)
		}
	case WV:
		// Target one of the low predicate registers: compilers allocate
		// guard predicates from P0 upward, so the physically-damaged
		// predicate line is overwhelmingly one the code actually writes.
		d.BitErrMask = uint32(rng.Intn(3))
	case IAT, IAW:
		// Thread/warp index corruption: flip low index bits.
		d.BitErrMask = uint32(1 + rng.Intn(7))
	case IAC:
		// Half the CTA errors corrupt the block index (ErrOperLoc 0),
		// half wrongly detain the block (ErrOperLoc 1), matching the
		// definition "incorrect detention, assignation, or unauthorized
		// submission of a CTA".
		d.BitErrMask = uint32(1 + rng.Intn(7))
		d.ErrOperLoc = rng.Intn(m.Locs())
	case IAL:
		d.ErrOperLoc = rng.Intn(m.Locs())
	}
	return d
}

func (d Descriptor) String() string {
	return fmt.Sprintf("%v sm%d.ppb%d warps=%v lanes=%#x mask=%#x loc=%d",
		d.Model, d.SM, d.PPB, d.Warps, d.Threads, d.BitErrMask, d.ErrOperLoc)
}
