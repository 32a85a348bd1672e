package errclass_test

import (
	"testing"

	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// smallPatterns returns a compact but diverse pattern set.
func smallPatterns(t *testing.T, n int) []units.Pattern {
	t.Helper()
	prof, err := profiler.Collect(
		[]workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}, workloads.BFS{}},
		profiler.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return prof.TopPatterns(n)
}

func TestCampaignClassifiesEveryFault(t *testing.T) {
	pats := smallPatterns(t, 40)
	for _, u := range units.All() {
		col := errclass.NewCollector(u.Name)
		sum := gatesim.CampaignCfg(u, pats, col, gatesim.Config{})
		if got := sum.NumUncontrollable + sum.NumMasked + sum.NumHang + sum.NumSWError; got != len(sum.Faults) {
			t.Fatalf("%s: class counts sum %d != %d faults", u.Name, got, len(sum.Faults))
		}
		if sum.NumSWError == 0 {
			t.Errorf("%s: campaign found no software-visible faults", u.Name)
		}
		if sum.NumUncontrollable+sum.NumMasked == 0 {
			t.Errorf("%s: campaign found no benign faults (implausible)", u.Name)
		}
		if col.Unmapped != 0 {
			t.Errorf("%s: %d corruption events had no error-model mapping", u.Name, col.Unmapped)
		}
		t.Logf("%s: %d faults -> %.1f%% uncontrollable, %.1f%% masked, %.1f%% hang, %.1f%% sw-error",
			u.Name, len(sum.Faults), 100*sum.Fraction(gatesim.Uncontrollable),
			100*sum.Fraction(gatesim.HWMasked), 100*sum.Fraction(gatesim.Hang), 100*sum.Fraction(gatesim.SWError))
	}
}

func TestCampaignDeterminism(t *testing.T) {
	pats := smallPatterns(t, 10)
	u := units.Decoder()
	s1 := gatesim.CampaignCfg(u, pats, nil, gatesim.Config{})
	s2 := gatesim.CampaignCfg(u, pats, nil, gatesim.Config{})
	for i := range s1.Class {
		if s1.Class[i] != s2.Class[i] {
			t.Fatalf("fault %d classified %v then %v", i, s1.Class[i], s2.Class[i])
		}
	}
}

func TestDecoderCampaignProducesExpectedModels(t *testing.T) {
	pats := smallPatterns(t, 60)
	u := units.Decoder()
	col := errclass.NewCollector(u.Name)
	gatesim.CampaignCfg(u, pats, col, gatesim.Config{})

	// The decoder touches the machine code directly, so the paper observes
	// the widest model spectrum there. At minimum, the big field groups
	// must show up.
	for _, m := range []errmodel.Model{errmodel.IOC, errmodel.IRA, errmodel.IVRA,
		errmodel.IIO, errmodel.WV} {
		if col.FaultsCausing(m) == 0 {
			t.Errorf("decoder campaign produced no %v faults", m)
		}
	}
	models := 0
	for _, m := range errmodel.All() {
		if col.FaultsCausing(m) > 0 {
			models++
		}
	}
	if models < 7 {
		t.Errorf("decoder campaign produced only %d distinct models", models)
	}
}

func TestWSCCampaignIsParallelManagementDominated(t *testing.T) {
	pats := smallPatterns(t, 60)
	u := units.WSC()
	col := errclass.NewCollector(u.Name)
	sum := gatesim.CampaignCfg(u, pats, col, gatesim.Config{})

	// Paper: faults in the scheduler map mostly to parallel-management
	// errors (IAT/IAW/IAC dominate; thread-mask state is the biggest
	// structure).
	if col.FaultsCausing(errmodel.IAT) == 0 {
		t.Error("WSC campaign produced no IAT faults")
	}
	if col.FaultsCausing(errmodel.IAW) == 0 {
		t.Error("WSC campaign produced no IAW faults")
	}
	pm := 0
	all := 0
	for _, m := range errmodel.All() {
		n := col.FaultsCausing(m)
		all += n
		if m.Group() == errmodel.GroupParallelMgmt {
			pm += n
		}
	}
	if all == 0 || float64(pm)/float64(all) < 0.4 {
		t.Errorf("WSC parallel-management share %d/%d too low", pm, all)
	}
	if sum.NumHang == 0 {
		t.Error("WSC campaign produced no hang faults")
	}
}

func TestFetchCampaignIsOperationDominated(t *testing.T) {
	pats := smallPatterns(t, 60)
	u := units.Fetch()
	col := errclass.NewCollector(u.Name)
	gatesim.CampaignCfg(u, pats, col, gatesim.Config{})

	// Paper: fetch faults lead mainly to operation errors (IOC/IVOC): the
	// corrupted IR or PC delivers a wrong or undefined instruction.
	op := 0
	all := 0
	for _, m := range errmodel.All() {
		n := col.FaultsCausing(m)
		all += n
		if m.Group() == errmodel.GroupOperation {
			op += n
		}
	}
	if all == 0 || float64(op)/float64(all) < 0.5 {
		t.Errorf("fetch operation-error share %d/%d too low", op, all)
	}
}

func TestHangFaultsAreControlPaths(t *testing.T) {
	pats := smallPatterns(t, 30)
	u := units.WSC()
	sum := gatesim.CampaignCfg(u, pats, nil, gatesim.Config{})
	// Hang fraction should be a small minority (paper: 1.2% – 3.6%).
	if f := sum.Fraction(gatesim.Hang); f > 0.25 {
		t.Errorf("hang fraction %.2f implausibly high", f)
	}
}

func TestReportRowsConsistent(t *testing.T) {
	pats := smallPatterns(t, 30)
	u := units.Decoder()
	col := errclass.NewCollector(u.Name)
	sum := gatesim.CampaignCfg(u, pats, col, gatesim.Config{})
	rep := errclass.Report(sum, col)
	if rep.TotalFaults != len(sum.Faults) {
		t.Errorf("report total %d != %d", rep.TotalFaults, len(sum.Faults))
	}
	for _, row := range rep.Rows {
		if row.FaultsCause <= 0 || row.TimesSW < row.FaultsCause {
			t.Errorf("row %v inconsistent: %d faults, %d events",
				row.Model, row.FaultsCause, row.TimesSW)
		}
		wantAVF := 100 * float64(row.FaultsCause) / float64(rep.TotalFaults)
		if row.AVFPerError != wantAVF {
			t.Errorf("row %v AVF %.3f != %.3f", row.Model, row.AVFPerError, wantAVF)
		}
	}
	if rep.String() == "" {
		t.Error("empty report")
	}
}

func TestModelForRegAndOpcodeBoundaries(t *testing.T) {
	p := units.Pattern{Word: isa.Instruction{Op: isa.OpIADD, Rd: 1, Rs1: 2, Rs2: 3}.Encode()}
	if m, ok := errclass.ModelFor("decoder", "rd", p, 1, 63); !ok || m != errmodel.IRA {
		t.Errorf("rd->63 = %v,%v want IRA", m, ok)
	}
	if m, ok := errclass.ModelFor("decoder", "rd", p, 1, 64); !ok || m != errmodel.IVRA {
		t.Errorf("rd->64 = %v,%v want IVRA", m, ok)
	}
	if m, ok := errclass.ModelFor("decoder", "opcode", p, uint64(isa.OpIADD), uint64(isa.OpIMUL)); !ok || m != errmodel.IOC {
		t.Errorf("opcode->IMUL = %v,%v want IOC", m, ok)
	}
	if m, ok := errclass.ModelFor("decoder", "opcode", p, uint64(isa.OpIADD), 0xEE); !ok || m != errmodel.IVOC {
		t.Errorf("opcode->0xEE = %v,%v want IVOC", m, ok)
	}
	st := units.Pattern{Word: isa.Instruction{Op: isa.OpSTS, Rs1: 1, Rs2: 2}.Encode()}
	if m, _ := errclass.ModelFor("decoder", "mem_space", st, 2, 0); m != errmodel.IMD {
		t.Errorf("mem_space on STS = %v, want IMD", m)
	}
	ld := units.Pattern{Word: isa.Instruction{Op: isa.OpGLD, Rd: 1, Rs1: 2}.Encode()}
	if m, _ := errclass.ModelFor("decoder", "mem_space", ld, 1, 0); m != errmodel.IMS {
		t.Errorf("mem_space on GLD = %v, want IMS", m)
	}
}

func TestFetchIRFieldClassification(t *testing.T) {
	g := isa.Instruction{Op: isa.OpIADD, Rd: 1, Rs1: 2, Rs2: 3, Pred: isa.PT}
	cases := []struct {
		mut  func(isa.Instruction) isa.Instruction
		want errmodel.Model
	}{
		{func(i isa.Instruction) isa.Instruction { i.Op = isa.OpIMUL; return i }, errmodel.IOC},
		{func(i isa.Instruction) isa.Instruction { i.Op = 0xEE; return i }, errmodel.IVOC},
		{func(i isa.Instruction) isa.Instruction { i.Rd = 5; return i }, errmodel.IRA},
		{func(i isa.Instruction) isa.Instruction { i.Rd = 200; return i }, errmodel.IVRA},
		{func(i isa.Instruction) isa.Instruction { i.Imm = 9; return i }, errmodel.IIO},
		{func(i isa.Instruction) isa.Instruction { i.Pred = 1; return i }, errmodel.WV},
	}
	p := units.Pattern{Word: g.Encode()}
	for _, c := range cases {
		f := c.mut(g)
		m, ok := errclass.ModelFor("fetch", "ir", p, uint64(g.Encode()), uint64(f.Encode()))
		if !ok || m != c.want {
			t.Errorf("ir corruption %v -> %v, want %v", f, m, c.want)
		}
	}
}
