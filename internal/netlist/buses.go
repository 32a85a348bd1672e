package netlist

import "fmt"

// Datapath macros. All buses are LSB-first []Node.
//
// Misuse of a macro (mismatched bus widths, a MuxN whose option count
// does not match its select bus) is recorded as a Diagnostic on
// the builder and surfaces from Build — the same path as
// structural defects — instead of panicking mid-construction. The macro
// still returns a bus of the expected width (padded with constant zeros)
// so chained construction can continue to Build, where the diagnostics
// are reported together.

// defect records a construction-time diagnostic surfaced by Build.
func (b *Builder) defect(code, format string, args ...any) {
	b.diags = append(b.diags, Diagnostic{code, Node(-1),
		fmt.Sprintf(format, args...)})
}

// sameLen checks that two buses match in width, recording a "bus-width"
// diagnostic otherwise. It reports whether the widths matched.
func (b *Builder) sameLen(a, c []Node, op string) bool {
	if len(a) != len(c) {
		b.defect("bus-width", "%s: bus width mismatch %d vs %d", op, len(a), len(c))
		return false
	}
	return true
}

// padTo extends a bus to width with constant zeros (recovery filler after
// a width-mismatch diagnostic; never emitted on well-formed circuits).
func (b *Builder) padTo(bus []Node, width int) []Node {
	for len(bus) < width {
		bus = append(bus, b.Const(false))
	}
	return bus[:width]
}

// ConstBus returns a bus holding the constant value, LSB first.
func (b *Builder) ConstBus(width int, value uint64) []Node {
	bus := make([]Node, width)
	for i := range bus {
		bus[i] = b.Const(value>>i&1 == 1)
	}
	return bus
}

// BufBus buffers every bit (distinct fault sites for a routed bus).
func (b *Builder) BufBus(a []Node) []Node {
	out := make([]Node, len(a))
	for i, n := range a {
		out[i] = b.Buf(n)
	}
	return out
}

// AndNode ANDs a single enable into every bit of the bus.
func (b *Builder) AndNode(a []Node, en Node) []Node {
	out := make([]Node, len(a))
	for i := range a {
		out[i] = b.And(a[i], en)
	}
	return out
}

// MuxBus returns sel ? hi : lo per bit.
func (b *Builder) MuxBus(sel Node, lo, hi []Node) []Node {
	if !b.sameLen(lo, hi, "MuxBus") {
		hi = b.padTo(hi, len(lo))
	}
	out := make([]Node, len(lo))
	for i := range lo {
		out[i] = b.Mux(sel, lo[i], hi[i])
	}
	return out
}

// MuxN selects options[sel] with a binary select bus (len(options) must be
// a power of two and equal 1<<len(sel)).
func (b *Builder) MuxN(sel []Node, options [][]Node) []Node {
	if len(options) != 1<<len(sel) {
		b.defect("muxn-arity", "MuxN with %d options and %d select bits",
			len(options), len(sel))
		if len(options) == 0 {
			return nil
		}
		return b.BufBus(options[0])
	}
	if len(options) == 1 {
		return options[0]
	}
	half := len(options) / 2
	lo := b.MuxN(sel[:len(sel)-1], options[:half])
	hi := b.MuxN(sel[:len(sel)-1], options[half:])
	return b.MuxBus(sel[len(sel)-1], lo, hi)
}

// Adder returns a ripple-carry a+c+cin, plus the carry out.
func (b *Builder) Adder(a, c []Node, cin Node) (sum []Node, cout Node) {
	if !b.sameLen(a, c, "Adder") {
		c = b.padTo(c, len(a))
	}
	sum = make([]Node, len(a))
	carry := cin
	for i := range a {
		axc := b.Xor(a[i], c[i])
		sum[i] = b.Xor(axc, carry)
		carry = b.Or(b.And(a[i], c[i]), b.And(axc, carry))
	}
	return sum, carry
}

// Inc returns a+1.
func (b *Builder) Inc(a []Node) []Node {
	sum, _ := b.Adder(a, b.ConstBus(len(a), 0), b.Const(true))
	return sum
}

// EqConst returns a == value.
func (b *Builder) EqConst(a []Node, value uint64) Node {
	acc := b.Const(true)
	for i, n := range a {
		bit := n
		if value>>i&1 == 0 {
			bit = b.Not(n)
		}
		acc = b.And(acc, bit)
	}
	return acc
}

// LtConst returns a < value (unsigned).
func (b *Builder) LtConst(a []Node, value uint64) Node {
	// a < v  ⇔  scanning from MSB: first position where they differ has
	// a=0, v=1.
	lt := b.Const(false)
	eq := b.Const(true)
	for i := len(a) - 1; i >= 0; i-- {
		vbit := value>>i&1 == 1
		if vbit {
			lt = b.Or(lt, b.And(eq, b.Not(a[i])))
			eq = b.And(eq, a[i])
		} else {
			eq = b.And(eq, b.Not(a[i]))
		}
	}
	return lt
}

// Decode returns the one-hot decode of the select bus (width 1<<len(sel)).
func (b *Builder) Decode(sel []Node) []Node {
	n := 1 << len(sel)
	out := make([]Node, n)
	for v := 0; v < n; v++ {
		out[v] = b.EqConst(sel, uint64(v))
	}
	return out
}

// Encode returns the binary encoding of a one-hot input (undefined when
// more than one bit is set).
func (b *Builder) Encode(onehot []Node) []Node {
	width := 0
	for 1<<width < len(onehot) {
		width++
	}
	out := make([]Node, width)
	for bit := 0; bit < width; bit++ {
		acc := b.Const(false)
		for v, n := range onehot {
			if v>>bit&1 == 1 {
				acc = b.Or(acc, n)
			}
		}
		out[bit] = acc
	}
	return out
}

// OrAll reduces a bus with OR.
func (b *Builder) OrAll(a []Node) Node {
	acc := b.Const(false)
	for _, n := range a {
		acc = b.Or(acc, n)
	}
	return acc
}

// Register declares a width-bit register; returns its outputs. Wire next
// state with SetRegister.
func (b *Builder) Register(width int) []Node {
	bus := make([]Node, width)
	for i := range bus {
		bus[i] = b.DFF()
	}
	return bus
}

// SetRegister connects the register's next state, optionally gated by an
// enable (nil = always load).
func (b *Builder) SetRegister(q, d []Node, en Node) {
	if !b.sameLen(q, d, "SetRegister") {
		d = b.padTo(d, len(q))
	}
	for i := range q {
		next := d[i]
		if en >= 0 {
			next = b.Mux(en, q[i], d[i])
		}
		b.SetDFF(q[i], next)
	}
}

// NoEnable is the enable value meaning "always load" for SetRegister.
const NoEnable = Node(-1)

// RotatePriority builds a rotating-priority (round-robin) arbiter: grants
// the first request at or after lastGrant+1 (cyclically). requests is
// one-hot-in/one-hot-out; lastGrant is a binary register bus.
func (b *Builder) RotatePriority(requests []Node, lastGrant []Node) (grant []Node) {
	n := len(requests)
	grant = make([]Node, n)
	lastOneHot := b.Decode(lastGrant)
	if len(lastOneHot) < n {
		panic("netlist: lastGrant too narrow for request vector")
	}
	// startAt[i] = 1 when the rotation begins at i (lastGrant == i-1).
	for i := 0; i < n; i++ {
		grant[i] = b.Const(false)
	}
	// For each possible start s, grant the first request in s, s+1, ...
	for s := 0; s < n; s++ {
		start := lastOneHot[(s+n-1)%n]
		taken := b.Const(false)
		for k := 0; k < n; k++ {
			i := (s + k) % n
			g := b.And(b.And(start, requests[i]), b.Not(taken))
			grant[i] = b.Or(grant[i], g)
			taken = b.Or(taken, requests[i])
		}
	}
	return grant
}
