package artifact

import (
	"bytes"
	"strings"
	"testing"

	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

func gateArtifact(t *testing.T) *GateReport {
	t.Helper()
	u := units.Decoder()
	pats := []units.Pattern{
		{Word: isa.Instruction{Op: isa.OpIADD, Pred: isa.PT, Rd: 1, Rs1: 2, Rs2: 3}.Encode()},
		{Word: isa.Instruction{Op: isa.OpGLD, Pred: isa.PT, Rd: 4, Rs1: 5, Imm: 2}.Encode()},
		{Word: isa.Instruction{Op: isa.OpSTS, Pred: isa.PT, Rs1: 1, Rs2: 2}.Encode()},
	}
	col := errclass.NewCollector(u.Name)
	sum := gatesim.CampaignCfg(u, pats, col, gatesim.Config{})
	return NewGateReport(7, sum, col)
}

func TestGateReportRoundTrip(t *testing.T) {
	rep := gateArtifact(t)
	var buf bytes.Buffer
	if err := Write(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGateReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unit != rep.Unit || got.TotalFaults != rep.TotalFaults ||
		len(got.Models) != len(rep.Models) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rep)
	}
	sum := got.Uncontrollable + got.HWMasked + got.HWHang + got.SWErrors
	if sum != got.TotalFaults {
		t.Errorf("classes sum to %d, want %d", sum, got.TotalFaults)
	}
}

func TestGateReportDeterministicBytes(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := Write(&b1, gateArtifact(t)); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, gateArtifact(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("artifact bytes differ across identical runs")
	}
	if !strings.Contains(b1.String(), "\"unit\": \"decoder\"") {
		t.Errorf("unexpected payload:\n%s", b1.String())
	}
}

func TestSoftwareReportRoundTrip(t *testing.T) {
	results, err := perfi.RunSuite(
		[]workloads.Workload{workloads.VectorAdd{}},
		perfi.Config{Injections: 4, Seed: 3,
			Models: []errmodel.Model{errmodel.IAT, errmodel.IOC}})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewSoftwareReport(3, 4, results)
	var buf bytes.Buffer
	if err := Write(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSoftwareReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Apps) != 1 || got.Apps[0].App != "vectoradd" {
		t.Fatalf("apps = %+v", got.Apps)
	}
	for _, m := range got.Apps[0].Models {
		if m.Masked+m.SDC+m.DUE != 4 {
			t.Errorf("%s outcomes sum to %d, want 4", m.Model, m.Masked+m.SDC+m.DUE)
		}
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := ReadGateReport(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Error("accepted wrong schema")
	}
	if _, err := ReadSoftwareReport(strings.NewReader(`not json`)); err == nil {
		t.Error("accepted garbage")
	}
}

func TestDigestDeterministic(t *testing.T) {
	type v struct {
		A int
		M map[string]int
	}
	d1, err := Digest(v{1, map[string]int{"x": 1, "y": 2}})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Digest(v{1, map[string]int{"y": 2, "x": 1}})
	if d1 != d2 {
		t.Fatalf("digests differ for equal values: %s vs %s", d1, d2)
	}
	d3, _ := Digest(v{2, nil})
	if d1 == d3 {
		t.Fatal("digests collide for different values")
	}
}

func TestNetlistDigestSensitivity(t *testing.T) {
	build := func(extraBuf bool) *netlist.Netlist {
		b := netlist.NewBuilder("d")
		a := b.Input("a")
		y := b.And(a, b.Input("c"))
		if extraBuf {
			y = b.Buf(y)
		}
		b.Output("y", 0, y)
		return b.MustBuild()
	}
	if NetlistDigest(build(false)) != NetlistDigest(build(false)) {
		t.Fatal("identical circuits digest differently")
	}
	if NetlistDigest(build(false)) == NetlistDigest(build(true)) {
		t.Fatal("structurally different circuits share a digest")
	}
}

func TestPatternsDigestOrderSensitive(t *testing.T) {
	p1 := units.Pattern{PC: 1}
	p2 := units.Pattern{PC: 2}
	if PatternsDigest([]units.Pattern{p1, p2}) == PatternsDigest([]units.Pattern{p2, p1}) {
		t.Fatal("pattern order not reflected in digest")
	}
}
