package isa

import "math"

// Eval computes what a register-arithmetic opcode commits to Rd for one
// thread with sources a, b and c; for SHL and SHR, b is the shift count.
// It returns 0 for every other opcode. The simulator's warp-wide execution
// core computes the same values (gpu's TestExecuteMatchesEval holds the
// two together).
func Eval(op Opcode, a, b, c uint32) uint32 {
	f := math.Float32frombits
	fb := math.Float32bits
	switch op {
	case OpIADD:
		return a + b
	case OpISUB:
		return a - b
	case OpIMUL:
		return a * b
	case OpIMAD:
		return a*b + c
	case OpIMIN:
		return uint32(min(int32(a), int32(b)))
	case OpIMAX:
		return uint32(max(int32(a), int32(b)))
	case OpIAND:
		return a & b
	case OpIOR:
		return a | b
	case OpIXOR:
		return a ^ b
	case OpSHL:
		return a << (b & 31)
	case OpSHR:
		return a >> (b & 31)
	case OpFADD:
		return fb(f(a) + f(b))
	case OpFSUB:
		return fb(f(a) - f(b))
	case OpFMUL:
		return fb(f(a) * f(b))
	case OpFFMA: // one rounding, from the double-precision product and sum
		return fb(float32(float64(f(a))*float64(f(b)) + float64(f(c))))
	case OpFMIN:
		return fb(float32(math.Min(float64(f(a)), float64(f(b)))))
	case OpFMAX:
		return fb(float32(math.Max(float64(f(a)), float64(f(b)))))
	case OpFSIN:
		return fb(float32(math.Sin(float64(f(a)))))
	case OpFEXP:
		return fb(float32(math.Exp2(float64(f(a)))))
	case OpFRCP:
		return fb(1 / f(a))
	case OpFSQRT:
		return fb(float32(math.Sqrt(float64(f(a)))))
	case OpI2F:
		return fb(float32(int32(a)))
	case OpF2I:
		return uint32(int32(f(a)))
	}
	return 0
}
