// Package errclass implements step 3 of the methodology: correlating the
// gate-level fault injection results with the hardware profile to express
// every fault effect as one of the 13 instruction-level error models.
//
// The mapping keys on which architectural output field of the unit a fault
// corrupted, and — where the paper's taxonomy distinguishes incorrect from
// invalid effects — on the corrupted value itself (a wrong-but-valid
// opcode is IOC, an undefined one IVOC; a register within the per-thread
// budget is IRA, beyond it IVRA).
package errclass

//vetsim:deterministic

import (
	"fmt"
	"math/bits"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/units"
)

// rules is step 3's whole mapping, one Rule per (unit, field). A field
// absent here is unmapped; hang-critical fields never reach a rule.
var rules = map[string]map[string]gatesim.Rule{
	"decoder": {
		"opcode": valued(opRule),
		// The validity flag itself flipping makes a valid instruction
		// undefined (or an undefined one "valid"): invalid operation.
		"valid": constant(errmodel.IVOC),
		// The operation executes on the wrong functional unit: a different
		// (but defined) operation happens.
		"unit_sel":    constant(errmodel.IOC),
		"rd":          valued(regRule),
		"rs1":         valued(regRule),
		"rs2":         valued(regRule),
		"rs3":         valued(regRule),
		"reg_ok":      constant(errmodel.IVRA),
		"imm":         constant(errmodel.IIO),
		"has_imm":     constant(errmodel.IIO),
		"pred":        constant(errmodel.WV),
		"flags":       constant(errmodel.WV),
		"writes_pred": constant(errmodel.WV),
		"mem_space":   valued(memRule),
		"is_load":     valued(memRule),
		"is_store":    constant(errmodel.IMD),
		"sr_sel":      valued(srSelRule),
		"wen":         constant(errmodel.IAL),
	},
	"fetch": {
		"ir": valued(irRule),
		// A wrong fetch address delivers a different (valid) instruction
		// stream: incorrect operation.
		"pc":           constant(errmodel.IOC),
		"warp_sel_out": constant(errmodel.IAW),
	},
	"wsc": {
		"sel_warp":     constant(errmodel.IAW),
		"issued_state": constant(errmodel.IAW),
		"active_mask":  constant(errmodel.IAT),
		"cta_id":       constant(errmodel.IAC),
		"shmem_base":   constant(errmodel.IPP),
		"regfile_base": constant(errmodel.IPP),
		"lane_enable":  constant(errmodel.IAL),
		"op_route":     valued(opRule),
	},
}

func constant(m errmodel.Model) gatesim.Rule { return gatesim.Rule{Mapped: true, Model: m} }

func valued(f func(p units.Pattern, golden, faulty uint64) errmodel.Model) gatesim.Rule {
	return gatesim.Rule{Mapped: true, Value: f}
}

// ModelFor maps a corrupted output field of a unit to an error model.
// It reports false for fields that do not become instruction-level errors
// (handled as hangs upstream).
func ModelFor(unit string, field string, p units.Pattern, golden, faulty uint64) (errmodel.Model, bool) {
	r := rules[unit][field]
	if r.Value != nil {
		return r.Value(p, golden, faulty), true
	}
	return r.Model, r.Mapped
}

// regModel distinguishes IRA from IVRA by the corrupted register number.
func regModel(faulty uint64) errmodel.Model {
	if faulty < isa.RegsPerThread || faulty == isa.RZ {
		return errmodel.IRA
	}
	return errmodel.IVRA
}

// opcodeModel distinguishes IOC from IVOC by the corrupted opcode.
func opcodeModel(faulty uint64) errmodel.Model {
	if isa.Opcode(faulty).Valid() {
		return errmodel.IOC
	}
	return errmodel.IVOC
}

func opRule(_ units.Pattern, _, faulty uint64) errmodel.Model  { return opcodeModel(faulty) }
func regRule(_ units.Pattern, _, faulty uint64) errmodel.Model { return regModel(faulty) }

// memRule splits a corrupted memory-space selection by the instruction's
// direction: a store's goes to the wrong destination, a load's reads the
// wrong source.
func memRule(p units.Pattern, _, _ uint64) errmodel.Model {
	if op := isa.Decode(p.Word).Op; op == isa.OpGST || op == isa.OpSTS {
		return errmodel.IMD
	}
	return errmodel.IMS
}

// srSelRule: a special-register read redirected to or from a CTA index is
// a wrong CTA, any other redirection a wrong thread.
func srSelRule(_ units.Pattern, golden, faulty uint64) errmodel.Model {
	if golden >= uint64(isa.SRCtaidX) && golden <= uint64(isa.SRCtaidZ) ||
		faulty >= uint64(isa.SRCtaidX) && faulty <= uint64(isa.SRCtaidZ) {
		return errmodel.IAC
	}
	return errmodel.IAT
}

// irRule classifies a corrupted fetched word by which instruction field
// broke, in decode priority order. It tests the field bit ranges of
// golden ^ faulty directly: isa.Decode is pure field extraction, so
// neither word needs decoding.
func irRule(_ units.Pattern, golden, faulty uint64) errmodel.Model {
	diff := golden ^ faulty
	switch {
	case field(diff, isa.FieldOpcodeLo, isa.FieldOpcodeHi) != 0:
		return opcodeModel(field(faulty, isa.FieldOpcodeLo, isa.FieldOpcodeHi))
	case field(diff, isa.FieldRdLo, isa.FieldRdHi) != 0:
		return regModel(field(faulty, isa.FieldRdLo, isa.FieldRdHi))
	case field(diff, isa.FieldRs1Lo, isa.FieldRs1Hi) != 0:
		return regModel(field(faulty, isa.FieldRs1Lo, isa.FieldRs1Hi))
	case field(diff, isa.FieldRs2Lo, isa.FieldRs2Hi) != 0:
		return regModel(field(faulty, isa.FieldRs2Lo, isa.FieldRs2Hi))
	case field(diff, isa.FieldRs3Lo, isa.FieldRs3Hi) != 0:
		return regModel(field(faulty, isa.FieldRs3Lo, isa.FieldRs3Hi))
	case field(diff, isa.FieldImmLo, isa.FieldImmHi) != 0:
		return errmodel.IIO
	case field(diff, isa.FieldPredLo, isa.FieldPredHi) != 0,
		field(diff, isa.FieldFlagsLo, isa.FieldFlagsHi) != 0:
		return errmodel.WV
	}
	return errmodel.IOC
}

// field extracts bits [lo, hi] of an instruction word.
func field(w uint64, lo, hi int) uint64 { return w >> lo & (1<<(hi-lo+1) - 1) }

// Collector is a gatesim.Classifier that holds one campaign's per-unit,
// per-model statistics behind Table 5 and Figure 9.
type Collector struct {
	Unit string

	// FaultModels[faultIdx] is the set of models the fault produced: bit
	// m set when it produced errmodel.Model(m).
	FaultModels []uint16
	// Events counts corruption events ("times an error was produced").
	Events [errmodel.Count]int
	// Unmapped counts corruptions of fields with no model mapping
	// (should stay zero; tracked for validation).
	Unmapped int
}

// NewCollector builds a collector for one unit's campaign.
func NewCollector(unit string) *Collector {
	return &Collector{Unit: unit}
}

// Rule implements gatesim.Classifier: the unit's rule for field.
func (c *Collector) Rule(field string) gatesim.Rule {
	return rules[c.Unit][field]
}

// Absorb implements gatesim.Classifier: it records the campaign's
// classification.
func (c *Collector) Absorb(faultModels []uint16, events [errmodel.Count]int, unmapped int) {
	c.FaultModels, c.Events, c.Unmapped = faultModels, events, unmapped
}

// FaultsCausing returns how many distinct faults produced the model.
func (c *Collector) FaultsCausing(m errmodel.Model) int {
	n := 0
	for _, set := range c.FaultModels {
		n += int(set >> uint(m) & 1)
	}
	return n
}

// FAPR returns the Fault Activation and Propagation Rate for the model:
// the fraction of the unit's faults that were activated, propagated, and
// manifested as that instruction-level error (Figure 9).
func (c *Collector) FAPR(m errmodel.Model, totalFaults int) float64 {
	if totalFaults == 0 {
		return 0
	}
	return float64(c.FaultsCausing(m)) / float64(totalFaults)
}

// MultiModelFaults returns how many faults produced more than one error
// model (the paper: "the same permanent fault may produce different types
// of software errors").
func (c *Collector) MultiModelFaults() int {
	n := 0
	for _, set := range c.FaultModels {
		if bits.OnesCount16(set) > 1 {
			n++
		}
	}
	return n
}

// UnitReport is the per-unit slice of Table 5.
type UnitReport struct {
	Unit        string
	TotalFaults int
	HangFaults  int
	Rows        []UnitReportRow
	Summary     *gatesim.Summary
}

// UnitReportRow is one (unit, error model) row of Table 5.
type UnitReportRow struct {
	Model       errmodel.Model
	FaultsCause int     // HW faults causing the error
	AVFPerError float64 // percentage of the unit's faults
	TimesSW     int     // times the error was produced
}

// Report assembles the Table-5 view from a campaign summary and its
// collector.
func Report(sum *gatesim.Summary, col *Collector) *UnitReport {
	r := &UnitReport{
		Unit:        sum.Unit,
		TotalFaults: len(sum.Faults),
		HangFaults:  sum.NumHang,
		Summary:     sum,
	}
	for _, m := range errmodel.All() {
		n := col.FaultsCausing(m)
		if n == 0 {
			continue
		}
		r.Rows = append(r.Rows, UnitReportRow{
			Model:       m,
			FaultsCause: n,
			AVFPerError: 100 * float64(n) / float64(r.TotalFaults),
			TimesSW:     col.Events[m],
		})
	}
	return r
}

func (r *UnitReport) String() string {
	s := fmt.Sprintf("%s: %d faults, %d hang\n", r.Unit, r.TotalFaults, r.HangFaults)
	for _, row := range r.Rows {
		s += fmt.Sprintf("  %-5v %6d faults  AVF %6.2f%%  %8d events\n",
			row.Model, row.FaultsCause, row.AVFPerError, row.TimesSW)
	}
	return s
}
