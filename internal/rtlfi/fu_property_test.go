package rtlfi

import (
	"math"
	"math/rand"
	"testing"

	"gpufaultsim/internal/isa"
)

// TestInactiveFaultsReturnGolden: whenever ComputeFaulty reports the fault
// inactive, its result must equal the golden computation bit for bit.
func TestInactiveFaultsReturnGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ops := []isa.Opcode{isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD,
		isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpFSIN, isa.OpFEXP}
	for trial := 0; trial < 3000; trial++ {
		op := ops[rng.Intn(len(ops))]
		a, b, c := rng.Uint32(), rng.Uint32(), rng.Uint32()
		if op.Unit() != isa.UnitINT {
			a = a&0x007FFFFF | 0x3F000000
			b = b&0x007FFFFF | 0x40000000
			c = c&0x007FFFFF | 0x3E000000
		}
		m := ModINT
		if op.Unit() == isa.UnitFP32 {
			m = ModFP32
		} else if op.Unit() == isa.UnitSFU {
			m = ModSFU
		}
		sites := SitesFor(m, op)
		site := sites[rng.Intn(len(sites))]
		out, act := ComputeFaulty(op, a, b, c, site)
		if !act && out != isa.Eval(op, a, b, c) {
			t.Fatalf("%v %v: inactive fault changed result: %#x vs %#x",
				op, site, out, isa.Eval(op, a, b, c))
		}
	}
}

// TestResultStageForcesExactBit: a stuck-at on result bit k must force
// exactly that bit of the output.
func TestResultStageForcesExactBit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 2000; trial++ {
		a, b := rng.Uint32(), rng.Uint32()
		bit := rng.Intn(32)
		stuck := rng.Intn(2) == 1
		out, _ := ComputeFaulty(isa.OpIADD, a, b, 0,
			Site{Stage: StResult, Bit: bit, Stuck: stuck})
		golden := isa.Eval(isa.OpIADD, a, b, 0)
		if stuck && out != golden|1<<bit {
			t.Fatalf("sa1 result bit %d: %#x from %#x", bit, out, golden)
		}
		if !stuck && out != golden&^(1<<bit) {
			t.Fatalf("sa0 result bit %d: %#x from %#x", bit, out, golden)
		}
	}
}

// TestCarryFaultEquivalence: with no fault the ripple adder is exact; with
// a fault at bit i, bits below i are untouched.
func TestCarryFaultLowBitsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 2000; trial++ {
		a, b := rng.Uint32(), rng.Uint32()
		i := rng.Intn(32)
		out, _ := ComputeFaulty(isa.OpIADD, a, b, 0,
			Site{Stage: StCarry, Bit: i, Stuck: rng.Intn(2) == 1})
		golden := isa.Eval(isa.OpIADD, a, b, 0)
		mask := uint32(1)<<i - 1
		if out&mask != golden&mask {
			t.Fatalf("carry fault at %d corrupted low bits: %#x vs %#x", i, out, golden)
		}
	}
}

// TestSFUControlFaultHitsSharedUnit: an SFU control fault must corrupt the
// result for (nearly) any operand, since the sequencer is shared state.
func TestSFUControlBypass(t *testing.T) {
	a := math.Float32bits(1.2)
	out, act := ComputeFaulty(isa.OpFSIN, a, 0, 0,
		Site{Stage: StSFUCtl, Bit: 0, Stuck: true})
	if !act {
		t.Fatal("SFU control bypass inactive")
	}
	if out != a {
		t.Fatalf("bypass result %#x, want the operand %#x", out, a)
	}
}

// TestMicroDeterminism: the same (op, range, site, seed) always yields the
// same outcome — campaigns depend on it.
func TestMicroDeterminism(t *testing.T) {
	site := Site{Module: ModPipe, Stage: StPipeOpA, Bit: 13, Lane: 2, Stuck: true}
	r1 := RunMicro(isa.OpFMUL, RangeM, site, rand.New(rand.NewSource(9)))
	r2 := RunMicro(isa.OpFMUL, RangeM, site, rand.New(rand.NewSource(9)))
	if r1.Outcome != r2.Outcome || len(r1.Corrupted) != len(r2.Corrupted) {
		t.Fatalf("micro run not deterministic: %+v vs %+v", r1, r2)
	}
}

// TestSoftMultiplierMatchesNative: the exact multiplier path must agree
// with native float32 multiplication for random normal operands.
func TestSoftMultiplierMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20000; trial++ {
		a := rng.Uint32()&0x007FFFFF | uint32(40+rng.Intn(160))<<23
		b := rng.Uint32()&0x007FFFFF | uint32(40+rng.Intn(160))<<23
		if rng.Intn(2) == 1 {
			a |= 1 << 31
		}
		if rng.Intn(2) == 1 {
			b |= 1 << 31
		}
		pa, okA := decomposeNormal(a)
		pb, okB := decomposeNormal(b)
		if !okA || !okB {
			continue
		}
		native := isa.Eval(isa.OpFMUL, a, b, 0)
		if isSpecialOrSub(native) {
			continue
		}
		soft := roundScaled(pa.sign*pb.sign, uint64(pa.mant)*uint64(pb.mant), pa.e+pb.e)
		if soft != native {
			t.Fatalf("softmul(%#x,%#x) = %#x, native %#x", a, b, soft, native)
		}
	}
}

// TestPartialProductFaultMagnitude: a pp(i,j) fault perturbs the result by
// roughly 2^(i+j-46) relative — small for low-weight bits.
func TestPartialProductFaultMagnitude(t *testing.T) {
	a := math.Float32bits(1.5)
	b := math.Float32bits(2.25)
	golden := isa.Eval(isa.OpFMUL, a, b, 0)
	lowSeen, highSeen := false, false
	for bit := 0; bit < 576; bit++ {
		for _, stuck := range []bool{false, true} {
			out, act := ComputeFaulty(isa.OpFMUL, a, b, 0,
				Site{Stage: StMantPP, Bit: bit, Stuck: stuck})
			if !act {
				continue
			}
			g := float64(math.Float32frombits(golden))
			f := float64(math.Float32frombits(out))
			re := math.Abs(f-g) / math.Abs(g)
			i, j := bit/24%24, bit%24
			if re > 1 {
				t.Fatalf("pp(%d,%d) fault relative error %v > 1", i, j, re)
			}
			if re < 1e-9 {
				lowSeen = true
			}
			if re > 1e-3 {
				highSeen = true
			}
		}
	}
	if !lowSeen || !highSeen {
		t.Errorf("pp faults did not span magnitudes: low=%v high=%v", lowSeen, highSeen)
	}
}

// TestFFMASoftPathConsistency: an inactive pp fault on FFMA returns the
// golden fused result; an active one perturbs it.
func TestFFMASoftPathConsistency(t *testing.T) {
	a := math.Float32bits(1.25)
	b := math.Float32bits(3.5)
	c := math.Float32bits(-2.0)
	golden := isa.Eval(isa.OpFFMA, a, b, c)
	active := 0
	for bit := 0; bit < 576; bit++ {
		out, act := ComputeFaulty(isa.OpFFMA, a, b, c,
			Site{Stage: StMantPP, Bit: bit, Stuck: true})
		if !act && out != golden {
			t.Fatalf("inactive FFMA pp fault changed result")
		}
		if act {
			active++
			if out == golden {
				// A perturbation can still round to the same float; fine.
				continue
			}
		}
	}
	if active == 0 {
		t.Fatal("no FFMA pp fault activated")
	}
}

// TestSoftAdderMatchesNative: the exact adder path (GRS + sticky folded
// into the LSB) must agree with native float32 addition and subtraction.
func TestSoftAdderMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 50000; trial++ {
		a := rng.Uint32()&0x007FFFFF | uint32(20+rng.Intn(200))<<23
		b := rng.Uint32()&0x007FFFFF | uint32(20+rng.Intn(200))<<23
		if rng.Intn(2) == 1 {
			a |= 1 << 31
		}
		if rng.Intn(2) == 1 {
			b |= 1 << 31
		}
		for _, op := range []isa.Opcode{isa.OpFADD, isa.OpFSUB} {
			golden := isa.Eval(op, a, b, 0)
			if isSpecialOrSub(golden) {
				continue
			}
			// An unmodelled stage falls through to the exact datapath
			// result, which must equal the native operation bit for bit.
			out, act := softFADD(op, a, b, Site{Stage: StCarry})
			if act {
				t.Fatalf("fallthrough stage reported active")
			}
			if out != golden {
				t.Fatalf("%v(%#x,%#x): soft %#x, native %#x", op, a, b, out, golden)
			}
		}
	}
}
