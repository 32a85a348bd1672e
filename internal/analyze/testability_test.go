package analyze

import (
	"testing"

	"gpufaultsim/internal/netlist"
)

// A plain adder-ish combinational circuit: every net can take both values,
// so no fault is statically uncontrollable or inert.
func TestCombinationalCircuitAllTestable(t *testing.T) {
	b := netlist.NewBuilder("adder")
	a := b.Input("a")
	c := b.Input("b")
	cin := b.Input("cin")
	sum := b.Xor(b.Xor(a, c), cin)
	carry := b.Or(b.And(a, c), b.And(cin, b.Xor(a, c)))
	b.Output("sum", 0, sum)
	b.Output("carry", 0, carry)
	nl := b.MustBuild()

	tb := Analyze(nl)
	for _, f := range netlist.FaultList(nl) {
		if !tb.Controllable(f.Node, !f.Stuck) {
			t.Errorf("adder: %v proved uncontrollable", f)
		}
	}
}

// A constant net can only be stuck the "wrong" way: sa1 at a const-1 node
// never activates, and neither does sa0 at an AND whose other side is
// constant 0.
func TestConstantNetsUncontrollable(t *testing.T) {
	b := netlist.NewBuilder("const")
	x := b.Input("x")
	one := b.Const(true)
	dead := b.And(x, b.Const(false))
	b.Output("y", 0, b.And(x, one))
	b.Output("z", 0, b.Or(dead, x))
	nl := b.MustBuild()

	tb := Analyze(nl)
	if tb.Controllable(one, false) {
		t.Fatalf("const1 reaches 0: sa1@const1 would count as activatable")
	}
	if !tb.Controllable(one, true) {
		t.Fatalf("const1 does not reach 1: sa0@const1 would count as uncontrollable")
	}
	v, constant := tb.ConstantValue(one)
	if !constant || !v {
		t.Fatalf("ConstantValue(const1) = %v,%v", v, constant)
	}
	if v, constant := tb.ConstantValue(dead); !constant || v {
		t.Fatalf("ConstantValue(x AND 0) = %v,%v, want false,true", v, constant)
	}
}

// State propagates through a DFF chain: q1 and q2 reset to 0 and reach 1
// one and two clocks after the input does.
func TestSequentialDepthFoldsIntoCosts(t *testing.T) {
	b := netlist.NewBuilder("pipe")
	x := b.Input("x")
	q1 := b.DFF()
	q2 := b.DFF()
	b.SetDFF(q1, x)
	b.SetDFF(q2, q1)
	b.Output("o", 0, q2)
	nl := b.MustBuild()

	tb := Analyze(nl)
	for _, q := range []netlist.Node{q1, q2} {
		if !tb.Controllable(q, false) || !tb.Controllable(q, true) {
			t.Fatalf("DFF %v should reach both values", q)
		}
	}
}

// Feedback through a DFF (a toggle counter) still converges and reports
// both values reachable.
func TestDFFFeedbackConverges(t *testing.T) {
	b := netlist.NewBuilder("toggle")
	q := b.DFF()
	b.SetDFF(q, b.Not(q))
	b.Output("o", 0, q)
	nl := b.MustBuild()

	tb := Analyze(nl)
	if !tb.Controllable(q, false) || !tb.Controllable(q, true) {
		t.Fatalf("toggle state should reach both values")
	}
}
