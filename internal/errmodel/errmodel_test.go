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
