package gpu

import (
	"math/bits"

	"gpufaultsim/internal/isa"
)

// InstrCtx is the view of one dynamic instruction presented to
// instrumentation hooks. It is the software-level analog of the
// instrumentation context NVBit exposes: hooks can observe and mutate
// architectural state (through W) and the instruction about to execute.
type InstrCtx struct {
	Dev *Device
	W   *Warp

	PC    int32
	Raw   isa.Word        // fetched instruction word
	Instr isa.Instruction // decoded; Before hooks may rewrite it

	// Mask is the set of lanes scheduled at this PC (before predication).
	Mask uint32
	// ExecMask is the set of lanes that actually executed (after
	// predication); valid in After hooks.
	ExecMask uint32
	// DisableMask, set by Before hooks, suppresses architectural commits
	// (register writes, memory accesses) for the given lanes without
	// touching control flow — the behaviour of a stuck-at-0 thread-enable
	// bit: the lane stops producing results but its warp keeps advancing.
	DisableMask uint32

	// Shared is the CTA's shared-memory segment (nil if none requested).
	Shared []uint32
	// Params is the launch's constant memory image.
	Params []uint32
}

// Hook observes and perturbs instruction execution. Before runs after
// fetch/decode but ahead of validity checks, predication and execution, so
// rewriting ctx.Instr changes what executes (and a rewrite into an invalid
// encoding traps, exactly as a fetch/decoder fault would). After runs once
// results are architecturally visible.
type Hook interface {
	Before(ctx *InstrCtx)
	After(ctx *InstrCtx)
}

// RaiseTrap aborts the launch with the given trap, as if the hardware had
// detected the condition itself. Injection hooks use this to model
// corruptions whose architectural outcome is an exception (e.g. an invalid
// register address selected by the IVRA error model).
func (ctx *InstrCtx) RaiseTrap(kind TrapKind, info string) {
	panic(trapError{kind, info})
}

// HookFuncs adapts two closures to the Hook interface. Either may be nil.
type HookFuncs struct {
	BeforeFn func(ctx *InstrCtx)
	AfterFn  func(ctx *InstrCtx)
}

// Before implements Hook.
func (h HookFuncs) Before(ctx *InstrCtx) {
	if h.BeforeFn != nil {
		h.BeforeFn(ctx)
	}
}

// After implements Hook.
func (h HookFuncs) After(ctx *InstrCtx) {
	if h.AfterFn != nil {
		h.AfterFn(ctx)
	}
}

// ForLanes calls f for every lane in mask, in ascending lane order: the
// way to walk InstrCtx.Mask, ExecMask or any other uint32 lane set.
func ForLanes(mask uint32, f func(lane int)) {
	for ; mask != 0; mask &= mask - 1 {
		f(bits.TrailingZeros32(mask))
	}
}
