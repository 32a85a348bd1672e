// Package rtlfi reproduces the paper's RTL-level fault-injection study
// (Section 4): AVF characterization of the functional units (FP32, INT,
// SFU), the warp scheduler and the pipeline registers over per-instruction
// micro-benchmarks (Figure 2), the fault syndrome distributions (Figures
// 4-5), and the tiled matrix-multiplication mini-app with its spatial
// corruption patterns (Figures 6-8, Table 2).
//
// Faults are permanent stuck-at defects on microarchitectural bit sites:
// operand/result/internal bits of the arithmetic datapaths, warp-state and
// PC bits of the scheduler, and operand/control fields of the pipeline
// registers. The datapath structure gives each module its characteristic
// masking behaviour — e.g. the FP32 unit carries conditionally-active
// sites (guard/denormal/special-case logic) that larger area implies,
// which is exactly why the paper measures lower AVF for FP32 than for INT.
package rtlfi

import (
	"fmt"

	"gpufaultsim/internal/isa"
)

// Module identifies an RTL injection target.
type Module int

const (
	ModFP32 Module = iota
	ModINT
	ModSFU
	ModSched
	ModPipe
)

var moduleNames = [...]string{"FP32", "INT", "SFU", "scheduler", "pipeline"}

func (m Module) String() string {
	if int(m) < len(moduleNames) {
		return moduleNames[m]
	}
	return fmt.Sprintf("Module(%d)", int(m))
}

// Stage identifies the datapath structure a site belongs to. The stage
// determines both how the fault perturbs a computation and when it is
// architecturally active.
type Stage int

const (
	// Arithmetic datapath stages.
	StOpA Stage = iota
	StOpB
	StOpC
	StResult
	StCarry   // carry-chain bit of the integer adder
	StMantPP  // one partial-product bit of the 24x24 FP multiplier array
	StExpSum  // FP exponent adder output bit
	StAlign   // aligned-addend bit of the FP adder (24+GRS)
	StFpSum   // mantissa-sum bit of the FP adder
	StGuard   // guard/round/sticky logic: active only on inexact results
	StDenorm  // denormal-handling path: active only for subnormal values
	StSpecial // NaN/Inf special-case logic: active only on special values
	StSFUCtl  // SFU sequencing control, shared by all threads on the SFU

	// Scheduler stages. The warp state table holds entries for every
	// resident warp slot; only the slots the benchmark occupies are
	// exercised, which dilutes the scheduler's AVF exactly as the paper
	// observes ("faults in the scheduler are less likely to impact the
	// computation").
	StMaskBit   // straggler thread-enable bit (one thread, one slot)
	StMaskGroup // thread-group enable bit (8 threads, the WSC's lane groups)
	StWarpPC    // warp program-counter storage bit (one slot)
	StWarpState // warp FSM / bookkeeping bit (one slot)
	StWarpSel   // warp-selection line (global)
	StPCBus     // PC readout/update datapath (global: every warp)
	StMaskBus   // mask readout/update datapath (global: every warp)

	// Pipeline-register stages.
	StPipeOpA  // latched operand A (per lane group)
	StPipeOpB  // latched operand B
	StPipeOp   // latched opcode field (control)
	StPipeMask // latched execution mask (control)
	StPipeMem  // latched memory-control field (control)
)

var stageNames = [...]string{
	"opA", "opB", "opC", "result", "carry", "mant_pp", "exp_sum",
	"align", "fp_sum",
	"guard", "denorm", "special",
	"sfu_ctl", "mask_bit", "mask_group", "warp_pc", "warp_state", "warp_sel",
	"pc_bus", "mask_bus",
	"pipe_opA", "pipe_opB", "pipe_op", "pipe_mask", "pipe_mem",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Site is one stuck-at injection site.
type Site struct {
	Module Module
	Stage  Stage
	Bit    int
	Lane   int // hardware lane the site belongs to (meaning varies by module)
	Stuck  bool
}

func (s Site) String() string {
	v := 0
	if s.Stuck {
		v = 1
	}
	return fmt.Sprintf("%v/%v[%d]@lane%d sa%d", s.Module, s.Stage, s.Bit, s.Lane, v)
}

// NumFULanes is the number of SP cores per warp slice: one per thread
// lane, as in the FlexGripPlus configuration (a fault in one core touches
// one thread per warp).
const NumFULanes = isa.WarpSize

// NumSFUs is the number of special function units shared per PPB; thread
// t maps to SFU t%NumSFUs.
const NumSFUs = 2

// NumPipeLanes is the width of one pipeline group: operands for 8 threads
// are latched at a time, and the same registers are reused by the four
// groups of a 32-thread warp.
const NumPipeLanes = 8

// SchedSlots is the number of warp slots tracked by the scheduler's warp
// state table. The micro-benchmarks occupy two of them; the idle entries
// dilute the scheduler AVF, as the paper observes.
const SchedSlots = 8

// schedLiveSlots is how many slots the 64-thread micro-benchmark fills.
const schedLiveSlots = 2

// fuStages returns the site stages of an arithmetic unit.
func fuSites(m Module, withC bool) []Site {
	var sites []Site
	addBus := func(st Stage, width, lane int) {
		for b := 0; b < width; b++ {
			sites = append(sites,
				Site{Module: m, Stage: st, Bit: b, Lane: lane, Stuck: false},
				Site{Module: m, Stage: st, Bit: b, Lane: lane, Stuck: true})
		}
	}
	// One datapath per lane; sites are replicated per lane but campaigns
	// sample lanes, so generate the structure for lane 0 and let the
	// sampler pick lanes.
	const lane = 0
	addBus(StOpA, 32, lane)
	addBus(StOpB, 32, lane)
	if withC {
		addBus(StOpC, 32, lane)
	}
	addBus(StResult, 32, lane)
	switch m {
	case ModINT:
		addBus(StCarry, 32, lane)
	case ModFP32:
		addBus(StGuard, 3, lane)
		addBus(StDenorm, 24, lane)
		addBus(StSpecial, 16, lane)
	case ModSFU:
		addBus(StSFUCtl, 16, lane)
	}
	return sites
}

// SitesFor returns the stuck-at site list of a module for an instruction
// class (the micro-benchmark's opcode decides whether an opC bus exists).
func SitesFor(m Module, op isa.Opcode) []Site {
	switch m {
	case ModFP32, ModINT, ModSFU:
		if m == ModFP32 && (op == isa.OpFADD || op == isa.OpFSUB) {
			// Addition-based FP ops use the bit-exact adder datapath.
			return softFADDSites(m)
		}
		if m == ModFP32 && (op == isa.OpFMUL || op == isa.OpFFMA) {
			// Multiplication-based FP ops use the bit-exact multiplier
			// datapath with its partial-product array.
			sites := softFMULSites(m)
			if op == isa.OpFFMA {
				for b := 0; b < 32; b++ {
					sites = append(sites,
						Site{Module: m, Stage: StOpC, Bit: b, Stuck: false},
						Site{Module: m, Stage: StOpC, Bit: b, Stuck: true})
				}
			}
			return sites
		}
		withC := op == isa.OpFFMA || op == isa.OpIMAD
		return fuSites(m, withC)
	case ModSched:
		// The warp state table: one entry per resident warp slot
		// (SchedSlots of them), holding group/straggler thread enables,
		// the warp PC and FSM bits, plus the global selection lines.
		var sites []Site
		add := func(st Stage, width, slot int) {
			for b := 0; b < width; b++ {
				sites = append(sites,
					Site{Module: m, Stage: st, Bit: b, Lane: slot, Stuck: false},
					Site{Module: m, Stage: st, Bit: b, Lane: slot, Stuck: true})
			}
		}
		for slot := 0; slot < SchedSlots; slot++ {
			add(StMaskGroup, 4, slot) // 4 groups of 8 threads
			add(StMaskBit, 4, slot)   // straggler thread enables
			add(StWarpPC, 4, slot)    // per-slot PC storage (low bits live)
			add(StWarpState, 2, slot)
		}
		// Shared datapaths: every warp's state flows through these, so
		// their corruption touches the whole launch — the source of the
		// paper's dominant "all elements corrupted" scheduler pattern.
		add(StWarpSel, 4, 0)
		add(StPCBus, 8, 0)
		add(StMaskBus, 8, 0)
		return sites
	case ModPipe:
		var sites []Site
		// Operand registers: per pipe lane (84% of the register bits).
		for lane := 0; lane < NumPipeLanes; lane++ {
			for b := 0; b < 32; b++ {
				for _, v := range []bool{false, true} {
					sites = append(sites,
						Site{Module: m, Stage: StPipeOpA, Bit: b, Lane: lane, Stuck: v},
						Site{Module: m, Stage: StPipeOpB, Bit: b, Lane: lane, Stuck: v})
				}
			}
		}
		// Control registers (the critical 16%).
		addCtl := func(st Stage, width int) {
			for b := 0; b < width; b++ {
				sites = append(sites,
					Site{Module: m, Stage: st, Bit: b, Stuck: false},
					Site{Module: m, Stage: st, Bit: b, Stuck: true})
			}
		}
		addCtl(StPipeOp, 8)
		addCtl(StPipeMask, 32)
		addCtl(StPipeMem, 8)
		return sites
	}
	return nil
}
