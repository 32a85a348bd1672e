package kasm_test

import (
	"fmt"

	"gpufaultsim/internal/kasm"
)

// ExampleBuilder builds a counting loop with a backward branch.
func ExampleBuilder() {
	b := kasm.New("count")
	b.MOVI(0, 3)
	b.Label("loop")
	b.MOVI(1, 1)
	b.Op2(12 /* isa.OpISUB */, 0, 0, 1)
	b.ISETP(2 /* CmpLT */, 0, 1, 0) // P0 = 1 < R0
	b.P(0).BRA("loop")
	b.EXIT()
	p := b.MustBuild()
	fmt.Println(p.Len(), "instructions")
	// Output:
	// 6 instructions
}
