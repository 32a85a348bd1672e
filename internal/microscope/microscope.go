// Package microscope records instruction-level execution traces and diffs
// a golden trace against a faulty one — the software-side equivalent of the
// paper's per-instruction fault-propagation tracking ("we track the
// execution of the complete instruction across the GPU architecture to
// guarantee the identification of any possible fault propagation").
package microscope

import (
	"fmt"
	"strings"

	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
)

// Event is one issued warp-instruction.
type Event struct {
	Seq      uint64
	SM       int
	CTA      gpu.Dim3
	Warp     int
	PC       int32
	Op       isa.Opcode
	ExecMask uint32
}

func (e Event) String() string {
	return fmt.Sprintf("#%d sm%d cta%v w%d pc=%d %v mask=%#08x",
		e.Seq, e.SM, e.CTA, e.Warp, e.PC, e.Op, e.ExecMask)
}

// maxEvents bounds a Recorder's memory; Total keeps counting past it.
const maxEvents = 1 << 20

// Recorder is a gpu.Hook that captures the issue stream, up to maxEvents
// events.
type Recorder struct {
	Events []Event
	Total  uint64
}

// Before implements gpu.Hook.
func (r *Recorder) Before(ctx *gpu.InstrCtx) {}

// After implements gpu.Hook.
func (r *Recorder) After(ctx *gpu.InstrCtx) {
	if len(r.Events) < maxEvents {
		r.Events = append(r.Events, Event{
			Seq: r.Total, SM: ctx.W.SM, CTA: ctx.W.CTA, Warp: ctx.W.IDInSM,
			PC: ctx.PC, Op: ctx.Instr.Op, ExecMask: ctx.ExecMask,
		})
	}
	r.Total++
}

// Divergence describes where a faulty trace departs from the golden one.
type Divergence struct {
	// Index is the position of the first differing event (-1: identical
	// over the compared prefix).
	Index int
	// Golden and Faulty are the events at the divergence point; either may
	// be the zero Event when one trace ended first.
	Golden, Faulty Event
	// GoldenLen/FaultyLen are the full captured lengths.
	GoldenLen, FaultyLen int
}

// Diverged reports whether the traces differ.
func (d Divergence) Diverged() bool { return d.Index >= 0 }

// Diff finds the first control-flow divergence between two traces.
// Execution-mask differences count: a dropped or added lane is exactly the
// kind of corruption the parallel-management error models introduce.
func Diff(golden, faulty []Event) Divergence {
	n := min(len(golden), len(faulty))
	for i := 0; i < n; i++ {
		g, f := golden[i], faulty[i]
		if g.Warp != f.Warp || g.PC != f.PC || g.Op != f.Op ||
			g.ExecMask != f.ExecMask || g.CTA != f.CTA {
			return Divergence{Index: i, Golden: g, Faulty: f,
				GoldenLen: len(golden), FaultyLen: len(faulty)}
		}
	}
	if len(golden) != len(faulty) {
		d := Divergence{Index: n, GoldenLen: len(golden), FaultyLen: len(faulty)}
		if n < len(golden) {
			d.Golden = golden[n]
		}
		if n < len(faulty) {
			d.Faulty = faulty[n]
		}
		return d
	}
	return Divergence{Index: -1, GoldenLen: len(golden), FaultyLen: len(faulty)}
}

// Render formats a divergence with surrounding context from both traces.
func Render(d Divergence, golden, faulty []Event, context int) string {
	var b strings.Builder
	if !d.Diverged() {
		fmt.Fprintf(&b, "traces identical (%d events)\n", d.GoldenLen)
		return b.String()
	}
	fmt.Fprintf(&b, "first divergence at event %d (golden %d events, faulty %d)\n",
		d.Index, d.GoldenLen, d.FaultyLen)
	lo := max(0, d.Index-context)
	hi := d.Index + context + 1
	for i := lo; i < hi; i++ {
		mark := "  "
		if i == d.Index {
			mark = "=>"
		}
		g, f := "<end>", "<end>"
		if i < len(golden) {
			g = golden[i].String()
		}
		if i < len(faulty) {
			f = faulty[i].String()
		}
		if g == f {
			fmt.Fprintf(&b, "%s %s\n", mark, g)
		} else {
			fmt.Fprintf(&b, "%s golden: %s\n   faulty: %s\n", mark, g, f)
		}
	}
	return b.String()
}

// MaskDriftStats summarizes how execution masks drift after the first
// divergence: total events compared, events with mask differences, and the
// cumulative count of lane flips (a propagation-extent measure).
func MaskDriftStats(golden, faulty []Event) (compared, maskDiffs, laneFlips int) {
	n := min(len(golden), len(faulty))
	for i := 0; i < n; i++ {
		compared++
		x := golden[i].ExecMask ^ faulty[i].ExecMask
		if x != 0 {
			maskDiffs++
			for ; x != 0; x &= x - 1 {
				laneFlips++
			}
		}
	}
	return compared, maskDiffs, laneFlips
}
