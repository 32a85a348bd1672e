package gpu

import "fmt"

// TrapKind classifies the abnormal terminations a launch can suffer. Any
// trap corresponds to a Detected Unrecoverable Error (DUE) at the
// application level.
type TrapKind int

const (
	TrapNone          TrapKind = iota
	TrapIllegalInstr           // invalid opcode reached execution (IVOC)
	TrapInvalidReg             // register operand outside the thread's budget (IVRA)
	TrapBadGlobalAddr          // global access out of bounds
	TrapBadSharedAddr          // shared access out of bounds
	TrapBadConstAddr           // constant access out of bounds
	TrapBadPC                  // control transfer outside the program
	TrapWatchdog               // issue budget exhausted (hang)
	TrapDeadlock               // barrier deadlock: no warp can make progress
)

var trapNames = [...]string{
	"none", "illegal-instruction", "invalid-register",
	"bad-global-address", "bad-shared-address", "bad-const-address",
	"bad-pc", "watchdog-timeout", "barrier-deadlock",
}

func (t TrapKind) String() string {
	if int(t) < len(trapNames) {
		return trapNames[t]
	}
	return fmt.Sprintf("TrapKind(%d)", int(t))
}

// Result summarizes one kernel launch.
type Result struct {
	Trap     TrapKind
	TrapInfo string // human-readable detail for the trap
	Issues   uint64 // warp-instructions issued
}

// Hung reports whether the launch terminated abnormally.
func (r Result) Hung() bool { return r.Trap != TrapNone }

func (r Result) String() string {
	if r.Trap == TrapNone {
		return fmt.Sprintf("ok (%d issues)", r.Issues)
	}
	return fmt.Sprintf("DUE %v: %s (%d issues)", r.Trap, r.TrapInfo, r.Issues)
}
