package rtlfi

import (
	"math"

	"gpufaultsim/internal/isa"
)

// forceBit applies a stuck-at to bit i of w, reporting whether the value
// changed (i.e. the fault was activated by this datum).
func forceBit(w uint32, bit int, stuck bool) (uint32, bool) {
	old := w
	if stuck {
		w |= 1 << bit
	} else {
		w &^= 1 << bit
	}
	return w, w != old
}

// rippleAdd performs X+Y with an optionally forced carry into position
// faultBit (-1 = no fault). It reports the sum and whether the forced
// carry differed from the organic one.
func rippleAdd(x, y uint32, faultBit int, stuck bool) (uint32, bool) {
	var sum uint32
	carry := uint32(0)
	activated := false
	for i := 0; i < 32; i++ {
		xa := x >> i & 1
		yb := y >> i & 1
		if i == faultBit {
			var forced uint32
			if stuck {
				forced = 1
			}
			if forced != carry {
				activated = true
			}
			carry = forced
		}
		sum |= (xa ^ yb ^ carry) << i
		carry = xa&yb | xa&carry | yb&carry
	}
	return sum, activated
}

// addOperands returns the final-adder inputs of an integer instruction.
func addOperands(op isa.Opcode, a, b, c uint32) (x, y uint32, ok bool) {
	switch op {
	case isa.OpIADD:
		return a, b, true
	case isa.OpISUB:
		return a, uint32(-int32(b)), true
	case isa.OpIMUL:
		return uint32(int32(a) * int32(b)), 0, true
	case isa.OpIMAD:
		return uint32(int32(a) * int32(b)), c, true
	}
	return 0, 0, false
}

func isSubnormal(w uint32) bool {
	exp := w >> 23 & 0xFF
	mant := w & 0x7FFFFF
	return exp == 0 && mant != 0
}

func isSpecial(w uint32) bool {
	return w>>23&0xFF == 0xFF // Inf or NaN
}

// inexact reports whether rounding occurred in the float32 operation
// (guard/round/sticky logic was exercised).
func inexact(op isa.Opcode, a, b, c uint32) bool {
	f := math.Float32frombits
	var exact float64
	switch op {
	case isa.OpFADD:
		exact = float64(f(a)) + float64(f(b))
	case isa.OpFSUB:
		exact = float64(f(a)) - float64(f(b))
	case isa.OpFMUL:
		exact = float64(f(a)) * float64(f(b))
	case isa.OpFFMA:
		exact = float64(f(a))*float64(f(b)) + float64(f(c))
	default:
		return true // transcendental units always round
	}
	return float64(float32(exact)) != exact
}

// ComputeFaulty evaluates one arithmetic operation through the faulty
// datapath. It returns the (possibly corrupted) result and whether the
// fault was activated by this computation; an unactivated fault yields the
// golden result.
func ComputeFaulty(op isa.Opcode, a, b, c uint32, s Site) (uint32, bool) {
	switch s.Stage {
	case StOpA:
		fa, act := forceBit(a, s.Bit, s.Stuck)
		return isa.Eval(op, fa, b, c), act
	case StOpB:
		fb_, act := forceBit(b, s.Bit, s.Stuck)
		return isa.Eval(op, a, fb_, c), act
	case StOpC:
		fc, act := forceBit(c, s.Bit, s.Stuck)
		return isa.Eval(op, a, b, fc), act
	case StResult:
		r := isa.Eval(op, a, b, c)
		fr, act := forceBit(r, s.Bit, s.Stuck)
		return fr, act
	case StCarry:
		x, y, ok := addOperands(op, a, b, c)
		if !ok {
			return isa.Eval(op, a, b, c), false
		}
		sum, act := rippleAdd(x, y, s.Bit, s.Stuck)
		return sum, act
	case StGuard:
		// Guard/round/sticky corruption perturbs the rounding decision:
		// one ulp of error, but only when the operation was inexact.
		r := isa.Eval(op, a, b, c)
		if !inexact(op, a, b, c) {
			return r, false
		}
		return r ^ 1, true
	case StDenorm:
		r := isa.Eval(op, a, b, c)
		if !isSubnormal(a) && !isSubnormal(b) && !isSubnormal(c) && !isSubnormal(r) {
			return r, false
		}
		fr, act := forceBit(r, s.Bit%23, s.Stuck)
		return fr, act
	case StSpecial:
		r := isa.Eval(op, a, b, c)
		if !isSpecial(a) && !isSpecial(b) && !isSpecial(c) && !isSpecial(r) {
			return r, false
		}
		fr, act := forceBit(r, (s.Bit%9)+23, s.Stuck)
		return fr, act
	case StMantPP, StExpSum:
		switch op {
		case isa.OpFMUL:
			return softFMUL(a, b, s)
		case isa.OpFFMA:
			return softFFMA(a, b, c, s)
		case isa.OpFADD, isa.OpFSUB:
			return softFADD(op, a, b, s)
		}
		return isa.Eval(op, a, b, c), false

	case StAlign, StFpSum:
		switch op {
		case isa.OpFADD, isa.OpFSUB:
			return softFADD(op, a, b, s)
		}
		return isa.Eval(op, a, b, c), false

	case StSFUCtl:
		// Shared-SFU sequencing corruption: the iteration control breaks
		// and the unit emits an intermediate value. Stuck-at-1 bypasses the
		// pipeline (emits the operand), stuck-at-0 truncates the iteration
		// (bit cleared in the result's mantissa).
		r := isa.Eval(op, a, b, c)
		if s.Stuck {
			if r == a {
				return r, false
			}
			return a, true
		}
		fr, act := forceBit(r, s.Bit%23, false)
		return fr, act
	}
	return isa.Eval(op, a, b, c), false
}
