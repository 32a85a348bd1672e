// Package gpu implements a SIMT functional simulator of a G80-class GPU:
// streaming multiprocessors (SMs) split into parallel processing blocks
// (PPBs), a warp scheduler, a SIMT divergence model, register files,
// predicate registers, and global/shared/constant memory spaces.
//
// The simulator plays two roles in the reproduction:
//
//   - it is the "real GPU" on which the software-level error injection
//     campaigns (package perfi) run the 15 evaluation workloads, and
//   - it is the RTL surrounding the gate-level units under test during
//     hardware profiling (package profiler), supplying the per-instruction
//     exciting patterns.
//
// Faults never occur spontaneously here: corruption enters only through
// instrumentation hooks, mirroring how NVBitPERfi instruments SASS code on
// silicon that is itself presumed healthy.
package gpu

import "fmt"

// Dim3 is a three-dimensional index or extent (threads, blocks).
type Dim3 struct{ X, Y, Z int }

// Count returns the total number of elements spanned by the extent; a
// component left zero counts as one.
func (d Dim3) Count() int { return max(d.X, 1) * max(d.Y, 1) * max(d.Z, 1) }

// axis returns the X, Y or Z component for i = 0, 1, 2.
func (d Dim3) axis(i uint16) int { return [3]int{d.X, d.Y, d.Z}[i] }

func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// Config describes the simulated device. The defaults mirror the
// FlexGripPlus configuration used for the paper's gate-level campaigns
// (one PPB per SM, 32 SP cores per PPB) scaled to a single SM.
type Config struct {
	NumSMs         int    // streaming multiprocessors
	PPBsPerSM      int    // sub-partitions per SM
	MaxWarpsPerSM  int    // resident warp slots per SM
	GlobalMemWords int    // words of global memory
	SharedMemWords int    // words of shared memory per CTA
	ConstMemWords  int    // words of constant memory (kernel params)
	MaxIssues      uint64 // watchdog: max issued warp-instructions per launch
}

// DefaultConfig returns the configuration used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		NumSMs:         1,
		PPBsPerSM:      1,
		MaxWarpsPerSM:  48,
		GlobalMemWords: 1 << 20, // 4 MiB
		SharedMemWords: 4096,    // 16 KiB
		ConstMemWords:  256,
		MaxIssues:      8 << 20,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumSMs < 1:
		return fmt.Errorf("gpu: NumSMs must be >= 1, got %d", c.NumSMs)
	case c.PPBsPerSM < 1:
		return fmt.Errorf("gpu: PPBsPerSM must be >= 1, got %d", c.PPBsPerSM)
	case c.MaxWarpsPerSM < 1:
		return fmt.Errorf("gpu: MaxWarpsPerSM must be >= 1, got %d", c.MaxWarpsPerSM)
	case c.GlobalMemWords < 1:
		return fmt.Errorf("gpu: GlobalMemWords must be >= 1, got %d", c.GlobalMemWords)
	case c.SharedMemWords < 0:
		return fmt.Errorf("gpu: SharedMemWords must be >= 0, got %d", c.SharedMemWords)
	case c.MaxIssues == 0:
		return fmt.Errorf("gpu: MaxIssues must be > 0")
	}
	return nil
}

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Grid        Dim3     // blocks
	Block       Dim3     // threads per block
	Params      []uint32 // kernel parameters, visible as constant memory
	SharedWords int      // shared memory words per CTA (0 = none)
}

// Validate checks the launch against the device configuration.
func (lc LaunchConfig) Validate(c Config) error {
	for _, d := range [...]Dim3{lc.Grid, lc.Block} {
		if d.X < 0 || d.Y < 0 || d.Z < 0 {
			return fmt.Errorf("gpu: negative grid or block extent %v/%v", lc.Grid, lc.Block)
		}
	}
	if lc.SharedWords < 0 || lc.SharedWords > c.SharedMemWords {
		return fmt.Errorf("gpu: launch requests %d shared words, device has %d",
			lc.SharedWords, c.SharedMemWords)
	}
	if len(lc.Params) > c.ConstMemWords {
		return fmt.Errorf("gpu: %d params exceed constant memory (%d words)",
			len(lc.Params), c.ConstMemWords)
	}
	warps := (lc.Block.Count() + 31) / 32
	if warps > c.MaxWarpsPerSM {
		return fmt.Errorf("gpu: block needs %d warps, SM holds %d",
			warps, c.MaxWarpsPerSM)
	}
	return nil
}
