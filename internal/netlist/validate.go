package netlist

import (
	"fmt"
	"strings"
)

// Diagnostic is one structural defect that makes a netlist unusable
// (Build fails on any). Code is a stable machine-readable identifier
// ("comb-cycle", "floating-dff", ...); Node is the offending net where one
// exists (-1 otherwise).
type Diagnostic struct {
	Code string
	Node Node
	Msg  string
}

func (d Diagnostic) String() string {
	if d.Node >= 0 {
		return fmt.Sprintf("error[%s] node %d: %s", d.Code, d.Node, d.Msg)
	}
	return fmt.Sprintf("error[%s]: %s", d.Code, d.Msg)
}

// BuildError is the structured error returned by Builder.Build when the
// circuit is structurally invalid. Diags holds every diagnostic found.
type BuildError struct {
	Name  string
	Diags []Diagnostic
}

func (e *BuildError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netlist %s: %d structural error(s)", e.Name, len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}

// ValidateNetlist runs the structural checks on a netlist value without
// panicking, so it is safe on hand-constructed (possibly broken) circuits:
// out-of-range node references, floating DFF next-state inputs, misdeclared
// primary inputs/outputs (an output bit declared twice, or outside a 64-bit
// field), and combinational cycles. Any diagnostic means
// the circuit cannot be evaluated.
func ValidateNetlist(nl *Netlist) []Diagnostic {
	var diags []Diagnostic
	n := len(nl.Cells)
	inRange := func(id Node) bool { return id >= 0 && int(id) < n }

	for id, c := range nl.Cells {
		nin := c.Kind.NumIns()
		for i := 0; i < nin; i++ {
			ref := c.In[i]
			if c.Kind == KDFF && ref < 0 {
				diags = append(diags, Diagnostic{"floating-dff", Node(id),
					"DFF has no next-state input (SetDFF never called)"})
				continue
			}
			if !inRange(ref) {
				diags = append(diags, Diagnostic{"dangling-ref", Node(id),
					fmt.Sprintf("%s input %d references node %d (of %d cells)", c.Kind, i, ref, n)})
			}
		}
	}
	for i, id := range nl.Inputs {
		if !inRange(id) || nl.Cells[id].Kind != KInput {
			diags = append(diags, Diagnostic{"bad-input", id,
				fmt.Sprintf("declared primary input %d is not an INPUT cell", i)})
		}
	}
	// Each (field, bit) is declared once and fits a 64-bit field value, so
	// a field's value differs from golden exactly when one of its output
	// nodes does — the campaign grades on that.
	declared := make(map[Output]bool, len(nl.Outputs))
	for _, o := range nl.Outputs {
		if !inRange(o.Node) {
			diags = append(diags, Diagnostic{"bad-output", o.Node,
				fmt.Sprintf("output %s[%d] references node %d (of %d cells)", o.Field, o.Bit, o.Node, n)})
		}
		if o.Bit < 0 || o.Bit >= 64 {
			diags = append(diags, Diagnostic{"bad-output", o.Node,
				fmt.Sprintf("output %s[%d] is outside a 64-bit field", o.Field, o.Bit)})
		}
		key := Output{Field: o.Field, Bit: o.Bit}
		if declared[key] {
			diags = append(diags, Diagnostic{"dup-output", o.Node,
				fmt.Sprintf("output %s[%d] is declared twice", o.Field, o.Bit)})
		}
		declared[key] = true
	}
	if len(diags) > 0 {
		// References are broken: the cycle walk below would index out of
		// range, and the circuit is already unbuildable.
		return diags
	}

	// Combinational cycle detection: iterative three-color DFS over the
	// combinational edges (inputs, constants and DFF outputs are sources).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n)
	type frame struct {
		id   Node
		next int
	}
	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		stack := []frame{{Node(root), 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			c := &nl.Cells[f.id]
			if c.Kind == KInput || c.Kind == KConst || c.Kind == KDFF {
				color[f.id] = black
				stack = stack[:len(stack)-1]
				continue
			}
			if f.next == 0 {
				color[f.id] = gray
			}
			if f.next < c.Kind.NumIns() {
				child := c.In[f.next]
				f.next++
				switch color[child] {
				case white:
					stack = append(stack, frame{child, 0})
				case gray:
					diags = append(diags, Diagnostic{"comb-cycle", child,
						fmt.Sprintf("combinational cycle through %s node %d", nl.Cells[child].Kind, child)})
					color[child] = black // report each cycle entry once
				}
				continue
			}
			color[f.id] = black
			stack = stack[:len(stack)-1]
		}
	}
	return diags
}
