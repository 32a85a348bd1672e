package netlist

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// evalScalar is a tiny reference evaluator: runs the simulator with the
// given input assignment and returns the value of node n in lane 0.
func evalWith(nl *Netlist, inputs map[string]uint64) *Simulator {
	sim := NewSimulator(nl)
	for i, name := range nl.InNames {
		_ = name
		_ = i
	}
	idx := map[string]int{}
	for i, name := range nl.InNames {
		idx[name] = i
	}
	for name, v := range inputs {
		sim.SetInput(idx[name], v == 1)
	}
	sim.Eval()
	return sim
}

func TestPrimitiveGates(t *testing.T) {
	b := NewBuilder("gates")
	a := b.Input("a")
	c := b.Input("b")
	b.Output("and", 0, b.And(a, c))
	b.Output("or", 0, b.Or(a, c))
	b.Output("xor", 0, b.Xor(a, c))
	b.Output("nand", 0, b.Nand(a, c))
	b.Output("nor", 0, b.Nor(a, c))
	b.Output("not", 0, b.Not(a))
	nl := b.MustBuild()

	for av := 0; av < 2; av++ {
		for cv := 0; cv < 2; cv++ {
			sim := evalWith(nl, map[string]uint64{"a": uint64(av), "b": uint64(cv)})
			checks := map[string]uint64{
				"and": uint64(av & cv), "or": uint64(av | cv),
				"xor": uint64(av ^ cv), "nand": uint64(1 &^ (av & cv)),
				"nor": uint64(1 &^ (av | cv)), "not": uint64(1 - av),
			}
			for field, want := range checks {
				if got := sim.OutputWord(field, 0); got != want {
					t.Errorf("%s(%d,%d) = %d, want %d", field, av, cv, got, want)
				}
			}
		}
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder("mux")
	sel := b.Input("sel")
	lo := b.Input("lo")
	hi := b.Input("hi")
	b.Output("y", 0, b.Mux(sel, lo, hi))
	nl := b.MustBuild()
	cases := []struct{ sel, lo, hi, want uint64 }{
		{0, 0, 1, 0}, {0, 1, 0, 1}, {1, 0, 1, 1}, {1, 1, 0, 0},
	}
	for _, c := range cases {
		sim := evalWith(nl, map[string]uint64{"sel": c.sel, "lo": c.lo, "hi": c.hi})
		if got := sim.OutputWord("y", 0); got != c.want {
			t.Errorf("mux(sel=%d,lo=%d,hi=%d) = %d, want %d", c.sel, c.lo, c.hi, got, c.want)
		}
	}
}

func buildAdder(width int) *Netlist {
	b := NewBuilder("adder")
	a := b.InputBus("a", width)
	c := b.InputBus("b", width)
	sum, cout := b.Adder(a, c, b.Const(false))
	b.OutputBus("sum", sum)
	b.Output("cout", 0, cout)
	return b.MustBuild()
}

func TestAdderProperty(t *testing.T) {
	nl := buildAdder(16)
	sim := NewSimulator(nl)
	f := func(a, c uint16) bool {
		sim.SetInputBus(0, 16, uint64(a))
		sim.SetInputBus(16, 16, uint64(c))
		sim.Eval()
		want := uint64(a) + uint64(c)
		got := sim.OutputWord("sum", 0) | sim.OutputWord("cout", 0)<<16
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIncAndComparators(t *testing.T) {
	b := NewBuilder("cmp")
	a := b.InputBus("a", 8)
	b.OutputBus("inc", b.Inc(a))
	b.Output("eq100", 0, b.EqConst(a, 100))
	b.Output("lt37", 0, b.LtConst(a, 37))
	nl := b.MustBuild()
	sim := NewSimulator(nl)
	for v := 0; v < 256; v++ {
		sim.SetInputBus(0, 8, uint64(v))
		sim.Eval()
		if got := sim.OutputWord("inc", 0); got != uint64((v+1)&0xFF) {
			t.Fatalf("inc(%d) = %d", v, got)
		}
		if got := sim.OutputWord("eq100", 0); (got == 1) != (v == 100) {
			t.Fatalf("eq100(%d) = %d", v, got)
		}
		if got := sim.OutputWord("lt37", 0); (got == 1) != (v < 37) {
			t.Fatalf("lt37(%d) = %d", v, got)
		}
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	b := NewBuilder("dec")
	sel := b.InputBus("sel", 4)
	oh := b.Decode(sel)
	b.OutputBus("onehot", oh)
	b.OutputBus("enc", b.Encode(oh))
	nl := b.MustBuild()
	sim := NewSimulator(nl)
	for v := 0; v < 16; v++ {
		sim.SetInputBus(0, 4, uint64(v))
		sim.Eval()
		if got := sim.OutputWord("onehot", 0); got != 1<<v {
			t.Fatalf("decode(%d) = %#x", v, got)
		}
		if got := sim.OutputWord("enc", 0); got != uint64(v) {
			t.Fatalf("encode(decode(%d)) = %d", v, got)
		}
	}
}

func TestMuxN(t *testing.T) {
	b := NewBuilder("muxn")
	sel := b.InputBus("sel", 2)
	opts := make([][]Node, 4)
	for i := range opts {
		opts[i] = b.ConstBus(8, uint64(10*i+5))
	}
	b.OutputBus("y", b.MuxN(sel, opts))
	nl := b.MustBuild()
	sim := NewSimulator(nl)
	for v := 0; v < 4; v++ {
		sim.SetInputBus(0, 2, uint64(v))
		sim.Eval()
		if got := sim.OutputWord("y", 0); got != uint64(10*v+5) {
			t.Fatalf("muxn(%d) = %d, want %d", v, got, 10*v+5)
		}
	}
}

func TestDFFCounter(t *testing.T) {
	// 4-bit counter: q <= q+1 each clock.
	b := NewBuilder("counter")
	q := b.Register(4)
	b.SetRegister(q, b.Inc(q), NoEnable)
	b.OutputBus("q", q)
	nl := b.MustBuild()
	sim := NewSimulator(nl)
	for cyc := 0; cyc < 20; cyc++ {
		sim.Eval()
		if got := sim.OutputWord("q", 0); got != uint64(cyc%16) {
			t.Fatalf("cycle %d: q = %d, want %d", cyc, got, cyc%16)
		}
		sim.Clock()
	}
}

func TestRegisterEnable(t *testing.T) {
	b := NewBuilder("regen")
	d := b.InputBus("d", 4)
	en := b.Input("en")
	q := b.Register(4)
	b.SetRegister(q, d, en)
	b.OutputBus("q", q)
	nl := b.MustBuild()
	sim := NewSimulator(nl)
	sim.SetInputBus(0, 4, 9)
	sim.SetInput(4, false)
	sim.Step()
	sim.Eval()
	if got := sim.OutputWord("q", 0); got != 0 {
		t.Fatalf("disabled register loaded: q=%d", got)
	}
	sim.SetInput(4, true)
	sim.Step()
	sim.Eval()
	if got := sim.OutputWord("q", 0); got != 9 {
		t.Fatalf("enabled register did not load: q=%d", got)
	}
}

func TestRotatePriorityArbiter(t *testing.T) {
	const n = 4
	b := NewBuilder("arb")
	reqs := b.InputBus("req", n)
	last := b.InputBus("last", 2)
	grant := b.RotatePriority(reqs, last)
	b.OutputBus("grant", grant)
	nl := b.MustBuild()
	sim := NewSimulator(nl)
	for last := 0; last < n; last++ {
		for req := 0; req < 1<<n; req++ {
			sim.SetInputBus(0, n, uint64(req))
			sim.SetInputBus(n, 2, uint64(last))
			sim.Eval()
			got := sim.OutputWord("grant", 0)
			// Reference: first set request at/after last+1 cyclically.
			want := uint64(0)
			for k := 0; k < n; k++ {
				i := (last + 1 + k) % n
				if req>>i&1 == 1 {
					want = 1 << i
					break
				}
			}
			if got != want {
				t.Fatalf("arb(req=%04b,last=%d) = %04b, want %04b", req, last, got, want)
			}
		}
	}
}

func TestParallelFaultSimulationMatchesSerial(t *testing.T) {
	// The core soundness property of the bit-parallel engine: simulating
	// 64 faults at once gives the same per-fault outputs as one at a time.
	nl := buildAdder(8)
	faults := FaultList(nl)
	rng := rand.New(rand.NewSource(3))

	for trial := 0; trial < 5; trial++ {
		a, c := rng.Uint64()&0xFF, rng.Uint64()&0xFF
		group := make([]Fault, 0, 64)
		perm := rng.Perm(len(faults))
		for _, i := range perm[:64] {
			group = append(group, faults[i])
		}

		par := NewSimulator(nl)
		par.SetFaults(group)
		par.SetInputBus(0, 8, a)
		par.SetInputBus(8, 8, c)
		par.Eval()

		for lane, f := range group {
			ser := NewSimulator(nl)
			ser.SetFaults([]Fault{f})
			ser.SetInputBus(0, 8, a)
			ser.SetInputBus(8, 8, c)
			ser.Eval()
			for _, field := range []string{"sum", "cout"} {
				pv := par.OutputWord(field, lane)
				sv := ser.OutputWord(field, 0)
				if pv != sv {
					t.Fatalf("fault %v lane %d: parallel %s=%d serial %s=%d",
						f, lane, field, pv, field, sv)
				}
			}
		}
	}
}

func TestFaultInjectionChangesAdderOutput(t *testing.T) {
	nl := buildAdder(8)
	sim := NewSimulator(nl)
	// Stuck-at-1 on input a[0] with a=0, b=0 must yield sum=1.
	sim.SetFaults([]Fault{{Node: nl.Inputs[0], Stuck: true}})
	sim.SetInputBus(0, 8, 0)
	sim.SetInputBus(8, 8, 0)
	sim.Eval()
	if got := sim.OutputWord("sum", 0); got != 1 {
		t.Fatalf("sum with sa1@a[0] = %d, want 1", got)
	}
}

func TestFaultListSize(t *testing.T) {
	nl := buildAdder(4)
	fl := FaultList(nl)
	if len(fl) != 2*len(nl.Cells) {
		t.Fatalf("fault list %d, want %d", len(fl), 2*len(nl.Cells))
	}
	if nl.NumFaults() != len(fl) {
		t.Fatalf("NumFaults inconsistent")
	}
}

func TestCombinationalCycleBuildError(t *testing.T) {
	b := NewBuilder("cycle")
	a := b.Input("a")
	// Manually create a cycle through two ANDs.
	n1 := b.And(a, a)
	n2 := b.And(n1, n1)
	b.cells[n1].In[1] = n2
	b.Output("y", 0, n2)
	nl, err := b.Build()
	if err == nil || nl != nil {
		t.Fatal("cycle did not fail Build")
	}
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BuildError", err)
	}
	if !hasCode(be, "comb-cycle") {
		t.Fatalf("diagnostics %v missing comb-cycle", be.Diags)
	}
	if be.Name != "cycle" {
		t.Errorf("BuildError.Name = %q", be.Name)
	}
}

func TestUnwiredDFFBuildError(t *testing.T) {
	b := NewBuilder("baddff")
	q := b.DFF()
	b.Output("q", 0, q)
	_, err := b.Build()
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BuildError", err)
	}
	if !hasCode(be, "floating-dff") {
		t.Fatalf("diagnostics %v missing floating-dff", be.Diags)
	}
	if got := be.Diags[0].Node; got != q {
		t.Errorf("diagnostic node = %d, want the DFF node %d", got, q)
	}
}

// A field whose bit is declared twice cannot be graded per node: two
// nodes would feed one value bit, so one could differ from golden while
// the assembled value did not.
func TestDuplicateOutputBitBuildError(t *testing.T) {
	b := NewBuilder("dup")
	a, c := b.Input("a"), b.Input("c")
	b.Output("y", 0, a)
	b.Output("y", 1, c)
	b.Output("z", 0, c) // same bit, other field: fine
	b.Output("y", 0, c)
	_, err := b.Build()
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BuildError", err)
	}
	if !hasCode(be, "dup-output") || len(be.Diags) != 1 {
		t.Fatalf("diagnostics %v, want one dup-output", be.Diags)
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on an unwired DFF did not panic")
		}
	}()
	b := NewBuilder("baddff")
	b.Output("q", 0, b.DFF())
	b.MustBuild()
}

func TestValidateNetlistCleanCircuit(t *testing.T) {
	nl := buildAdder(4)
	if diags := ValidateNetlist(nl); len(diags) != 0 {
		t.Fatalf("clean adder produced diagnostics: %v", diags)
	}
}

func TestValidateNetlistDanglingRef(t *testing.T) {
	nl := &Netlist{
		Name:  "broken",
		Cells: []Cell{{Kind: KInput}, {Kind: KBuf, In: [3]Node{99}}},
	}
	diags := ValidateNetlist(nl)
	found := false
	for _, d := range diags {
		if d.Code == "dangling-ref" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostics %v missing dangling-ref", diags)
	}
}

func TestMuxNArityReportedByBuild(t *testing.T) {
	b := NewBuilder("muxn")
	sel := b.InputBus("sel", 2) // 2 select bits but only 3 options
	opts := [][]Node{b.InputBus("a", 4), b.InputBus("c", 4), b.InputBus("d", 4)}
	out := b.MuxN(sel, opts)
	if len(out) != 4 {
		t.Fatalf("recovery bus width = %d, want 4", len(out))
	}
	b.OutputBus("y", out)
	_, err := b.Build()
	var be *BuildError
	if !errors.As(err, &be) || !hasCode(be, "muxn-arity") {
		t.Fatalf("Build after bad MuxN: err = %v, want muxn-arity diagnostic", err)
	}
}

func TestBusWidthMismatchReportedByBuild(t *testing.T) {
	for _, tc := range []struct {
		op    string
		build func(b *Builder)
	}{
		{"MuxBus", func(b *Builder) {
			s := b.Input("s")
			b.OutputBus("y", b.MuxBus(s, b.InputBus("a", 4), b.InputBus("c", 3)))
		}},
		{"Adder", func(b *Builder) {
			sum, _ := b.Adder(b.InputBus("a", 4), b.InputBus("c", 3), b.Const(false))
			b.OutputBus("y", sum)
		}},
		{"SetRegister", func(b *Builder) {
			q := b.Register(4)
			b.SetRegister(q, b.InputBus("d", 3), NoEnable)
			b.OutputBus("y", q)
		}},
	} {
		b := NewBuilder("w-" + tc.op)
		tc.build(b)
		_, err := b.Build()
		var be *BuildError
		if !errors.As(err, &be) || !hasCode(be, "bus-width") {
			t.Errorf("%s: Build err = %v, want bus-width diagnostic", tc.op, err)
		}
	}
}

func TestWellFormedMacrosStillBuild(t *testing.T) {
	b := NewBuilder("ok")
	sel := b.InputBus("sel", 1)
	out := b.MuxN(sel, [][]Node{b.InputBus("a", 4), b.InputBus("c", 4)})
	b.OutputBus("y", out)
	if _, err := b.Build(); err != nil {
		t.Fatalf("well-formed circuit failed Build: %v", err)
	}
}

func hasCode(be *BuildError, code string) bool {
	return slices.ContainsFunc(be.Diags, func(d Diagnostic) bool { return d.Code == code })
}
