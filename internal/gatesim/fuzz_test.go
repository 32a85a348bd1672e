package gatesim

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/netlist"
)

// FuzzNetlistEval is the fuzz form of the differential harness: the fuzzer
// picks the circuit shape (a random sequential netlist), the cycle depth and
// the stimulus seed, and both engines must agree byte-for-byte on the whole
// campaign — summary and dense classification, under every rule kind (the
// seed picks the salt) — and collapsing must not change the classification. Anything the
// fuzzer finds shrinks to a (seed, shape) pair that reproduces directly.
func FuzzNetlistEval(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(30), uint8(3), uint8(4), uint8(2))
	f.Add(int64(42), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add(int64(7), uint8(12), uint8(120), uint8(8), uint8(10), uint8(4))
	f.Add(int64(-9), uint8(2), uint8(64), uint8(5), uint8(6), uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, inputs, gates, dffs, outputs, cycles uint8) {
		spec := netlist.RandomSpec{
			Inputs:  1 + int(inputs)%16,
			Gates:   1 + int(gates)%160,
			DFFs:    int(dffs) % 10,
			Outputs: 1 + int(outputs)%12,
		}
		rng := rand.New(rand.NewSource(seed))
		u := randomUnit(rng, spec, 1+int(cycles)%4)
		patterns := diffPatterns(seed^0x5DEECE66D, 8)
		diffCollapse(t, u, patterns, uint32(seed))
	})
}
