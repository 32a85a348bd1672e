// Package engine implements a levelized, event-driven, 64-way bit-parallel
// fault simulation engine — the delta-only counterpart of the full
// re-evaluation in netlist.Simulator.
//
// The observation it exploits is the one behind GATSPI-style gate
// simulators: a single stuck-at pin perturbs a small cone of logic, yet the
// full simulator re-evaluates the *entire* netlist for every pattern of
// every fault batch. The event engine instead runs one fault-free baseline
// evaluation per pattern (recorded by the campaign as a packed golden
// trace), then for each 64-fault batch seeds an event queue with only the
// faulty pins and the diverged flip-flops, and propagates value *deltas*
// level-by-level through the precomputed fanout (analyze.Levelize). Gates
// whose inputs never change are never touched; when the active set goes
// empty a cycle costs O(batch) instead of O(netlist) — which is how
// hardware-masked and uncontrollable faults, the bulk of every campaign,
// become nearly free.
//
// On top of the 64 fault lanes the engine packs up to Slots patterns into
// one sweep: every per-node word becomes a Slots-wide vector (vec), slot r
// holding the fault group's lanes under pattern r. The fault cones of
// nearby patterns overlap heavily — on the WSC campaign the union of the
// per-pattern active sets is ~0.37x their sum at four slots — so one
// quad-packed propagation schedules, loads and stores roughly a third of
// what four single-pattern sweeps would, while the per-slot delta words
// stay bit-for-bit what each solo sweep computes (the slots share control
// flow, never data).
//
// Layout and dispatch follow the same GATSPI playbook: per-node sparse
// state lives in flat node-indexed slabs sized once per engine and reused
// across every pattern and batch (delta words retired per cycle, seed and
// schedule stamps invalidated wholesale by epoch bumps), and scheduled
// gates evaluate through the netlist's branch-free kernel program
// (netlist.Kernels) — one truth-table mask expression per gate, no
// per-gate switch dispatch. Faulty values are stored as deltas (faulty
// XOR golden): a clean node's delta is zero, so operand loads in the
// sweep are pure mask arithmetic with no validity branch. The golden
// operand is pre-broadcast per node at bind time (BindGoldenPack), so a
// sweep operand is one vector XOR — no bit extraction on the hot path.
//
// The engine is exact, not approximate: every value it exposes is the word
// the full simulator would compute, because a gate's output can only
// deviate from the golden trace if one of its inputs deviates, and the
// level order guarantees every deviating input is final before its readers
// evaluate. The differential and fuzz harnesses in package gatesim assert
// byte-identical campaign results across both engines at every packing.
package engine

//vetsim:deterministic

import (
	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/netlist"
)

// Slots is the pattern-packing width of one sweep: up to this many
// patterns' fault cones propagate through a single quad-wide delta pass.
const Slots = 4

// vec is one node's per-slot lane words: vec[r] is the 64-lane value under
// pattern slot r. Half a cache line per node at Slots = 4.
type vec = [Slots]uint64

// Sim is an event-driven, pattern-packed 64-lane fault simulator bound to
// one netlist. It is not safe for concurrent use; campaigns own one per
// worker.
//
// Protocol, per pattern quad:
//
//	sim.BindGoldenPack(traces)     // 1..Slots packed fault-free traces
//	sim.SetFaults(group)           // ≤64 stuck-at faults, one per lane
//	for c := 0; c < cycles; c++ {
//		sim.BeginCycle(c)          // seed + propagate deltas, all slots
//		if sim.Active() { ... }    // SetReadSlot, then read Node
//		sim.Clock(c)               // capture DFF divergence, retire deltas
//	}
//
// Clock must run after every BeginCycle — besides capturing flip-flop
// divergence it retires the cycle's delta vectors, the invariant the next
// cycle's branch-free operand loads rest on.
type Sim struct {
	nl   *netlist.Netlist
	lv   *analyze.Levelization
	kern *netlist.Kernels

	// Golden state: gq[c][n] is node n's golden value in cycle c,
	// broadcast per slot (an owned slab filled by BindGoldenPack); gqcur
	// is gq[c] for the cycle being simulated. qlen is the number of real
	// pattern slots bound (1..Slots); the rest duplicate the last real
	// slot, so they propagate identical deltas and never widen the
	// active set.
	gq     [][]vec
	gqcur  []vec
	cycles int
	qlen   int

	// Per-node sparse state, flat node-indexed slabs sized once per
	// engine. delta[n] is the node's faulty vector XOR its golden vector —
	// all-zero for every clean node, maintained by Clock retiring the
	// touched nodes' deltas each cycle, so operand loads in the sweep are
	// branch-free (golden ^ delta, valid for clean and dirty nodes
	// alike). ovr[n] is the node's stuck-at override pair {set, clr} for
	// the current fault group, shared by every slot (the packed patterns
	// grade the same faults). stamp dedups seeding and sched dedups
	// scheduling within a cycle; both are invalidated wholesale by epoch
	// bumps, never cleared.
	delta  []vec
	ovr    [][2]uint64
	fsMask []uint64 // fault-site bitmask: bit n%64 of word n/64 set when ovr[n] is live
	stamp  []uint32
	sched  []uint32
	epoch  uint32

	faultNodes []netlist.Node
	touched    []netlist.Node // nodes marked dirty this cycle (deduplicated)
	pend       []netlist.Node // per-level transition scratch for BeginCycle's two-phase sweep

	// Level-bucketed event queue, swept between the active bounds
	// [lvLo, lvHi] maintained by the schedulers — quiet levels outside
	// the bounds are never visited.
	bucket     [][]netlist.Node
	lvLo, lvHi int

	// DFFs whose faulty state diverges from golden in any slot going into
	// the next cycle: parallel node/vector lists, rebuilt by every Clock.
	divNode []netlist.Node
	divWord []vec

	// Output tracking: isOut flags nodes bound to primary outputs;
	// outTouched lists the ones marked dirty this cycle (a conservative
	// superset of the deviating outputs — a node can be re-evaluated back
	// to its golden value after marking).
	isOut      []bool
	outTouched []netlist.Node

	// readSlot selects the pattern slot served by Node (SetReadSlot);
	// grading loops switch it per slot.
	readSlot int
}

// New builds an event-driven simulator from a netlist and its levelization.
// Pass a nil levelization to compute one internally.
func New(nl *netlist.Netlist, lv *analyze.Levelization) *Sim {
	if lv == nil {
		lv = analyze.Levelize(nl)
	}
	n := len(nl.Cells)
	// One 32-bit arena carries both per-cycle stamp arrays.
	stamps := make([]uint32, 2*n)
	s := &Sim{
		nl:     nl,
		lv:     lv,
		kern:   nl.Kernels(),
		delta:  make([]vec, n),
		ovr:    make([][2]uint64, n),
		fsMask: make([]uint64, (n+63)/64),
		pend:   make([]netlist.Node, n),
		stamp:  stamps[0*n : 1*n : 1*n],
		sched:  stamps[1*n : 2*n : 2*n],
		bucket: make([][]netlist.Node, lv.MaxLevel+1),
		isOut:  make([]bool, n),
	}
	for _, o := range nl.Outputs {
		s.isOut[o.Node] = true
	}
	return s
}

// BindGoldenPack attaches the fault-free traces of 1..Slots patterns:
// traces[r][c] holds every node's value under pattern r in cycle c, packed
// 64 nodes per word (bit n%64 of word n/64) — the campaign's per-slot
// golden view. The bits are expanded into the engine's per-node broadcast
// vectors once here, off the sweep's critical path; unused slots duplicate
// the last real trace. Divergence state from the previous binding is
// discarded (machines restart from reset, where all lanes agree with
// golden).
func (s *Sim) BindGoldenPack(traces [][][]uint64) {
	if len(traces) == 0 || len(traces) > Slots {
		panic("engine: BindGoldenPack wants 1..Slots golden traces")
	}
	n := len(s.nl.Cells)
	cycles := len(traces[0])
	if len(s.gq) < cycles {
		s.gq = make([][]vec, cycles)
		slab := make([]vec, cycles*n)
		for c := range s.gq {
			s.gq[c] = slab[c*n : (c+1)*n : (c+1)*n]
		}
	}
	s.cycles = cycles
	s.qlen = len(traces)
	for r := 0; r < Slots; r++ {
		tr := traces[min(r, len(traces)-1)]
		for c := 0; c < cycles; c++ {
			dst := s.gq[c]
			for w, word := range tr[c] {
				base := w * 64
				end := min(base+64, n)
				for i := base; i < end; i++ {
					dst[i][r] = -(word >> (uint(i) & 63) & 1)
				}
			}
		}
	}
	s.divNode = s.divNode[:0]
	s.divWord = s.divWord[:0]
}

// SetFaults installs a group of up to 64 stuck-at faults, fault i on lane
// i, replacing the previous group. The group is shared by every pattern
// slot. Divergence state is reset.
//
//vetsim:hotpath
func (s *Sim) SetFaults(group []netlist.Fault) {
	if len(group) > 64 {
		panic("engine: fault group exceeds 64 lanes")
	}
	for _, n := range s.faultNodes {
		s.ovr[n] = [2]uint64{}
		s.fsMask[uint(n)>>6] &^= 1 << (uint(n) & 63)
	}
	s.faultNodes = s.faultNodes[:0]
	for lane, f := range group {
		n := f.Node
		if s.ovr[n] == ([2]uint64{}) {
			s.faultNodes = append(s.faultNodes, n)
			s.fsMask[uint(n)>>6] |= 1 << (uint(n) & 63)
		}
		if f.Stuck {
			s.ovr[n][0] |= 1 << lane
		} else {
			s.ovr[n][1] |= 1 << lane
		}
	}
	s.divNode = s.divNode[:0]
	s.divWord = s.divWord[:0]
}

// seed installs a known faulty base vector at node n (the latched state of
// a diverged DFF), applies the node's own stuck-at override, and schedules
// its combinational readers if any slot deviates from golden. Seeds run on
// retired (all-zero) deltas — stamp dedups the fault-site pass against
// nodes the flip-flop pass already seeded — so a nonzero delta here is
// always a 0→d transition.
//
//vetsim:hotpath
func (s *Sim) seed(n netlist.Node, base *vec) {
	o := &s.ovr[n]
	g := &s.gqcur[n]
	d := &s.delta[n]
	s.stamp[n] = s.epoch
	var any uint64
	for r := 0; r < Slots; r++ {
		dr := ((base[r] | o[0]) &^ o[1]) ^ g[r]
		d[r] = dr
		any |= dr
	}
	if any != 0 {
		s.markTouched(n)
	}
}

// markTouched records a node whose delta just transitioned 0→nonzero in
// some slot: it joins the touched (and, if output-bound, outTouched) list,
// and its combinational readers are scheduled into the level buckets,
// deduplicated by the sched stamp.
//
//vetsim:hotpath
func (s *Sim) markTouched(n netlist.Node) {
	s.touched = append(s.touched, n)
	if s.isOut[n] {
		s.outTouched = append(s.outTouched, n)
	}
	lv := s.lv
	for i, end := lv.ReadersOff[n], lv.ReadersOff[n+1]; i < end; i++ {
		r := lv.ReadersFlat[i]
		if s.sched[r] != s.epoch {
			s.sched[r] = s.epoch
			l := int(lv.ReadersLvl[i])
			s.bucket[l] = append(s.bucket[l], r)
			if l < s.lvLo {
				s.lvLo = l
			}
			if l > s.lvHi {
				s.lvHi = l
			}
		}
	}
}

// BeginCycle evaluates cycle c of the faulty machines as a delta over the
// golden traces, all pattern slots at once: diverged DFFs and fault sites
// are seeded, then deltas propagate level-by-level through the fanout. On
// return, Node serves exactly the values the full simulator would hold
// after its Eval of cycle c under the read slot's pattern.
//
//vetsim:hotpath
func (s *Sim) BeginCycle(c int) {
	s.gqcur = s.gq[c]
	s.epoch++
	s.touched = s.touched[:0]
	s.outTouched = s.outTouched[:0]
	s.lvLo = len(s.bucket)
	s.lvHi = 0

	// Seeds: flip-flops whose captured state deviates from golden in any
	// slot, then every fault site (stuck-at pins force their value every
	// cycle).
	for i, q := range s.divNode {
		s.seed(q, &s.divWord[i])
	}
	for _, n := range s.faultNodes {
		if s.stamp[n] != s.epoch {
			g := &s.gqcur[n]
			o := &s.ovr[n]
			d := &s.delta[n]
			// Inline of seed with base = golden: d = ((g|set)&^clr) ^ g.
			s.stamp[n] = s.epoch
			var any uint64
			for r := 0; r < Slots; r++ {
				dr := ((g[r] | o[0]) &^ o[1]) ^ g[r]
				d[r] = dr
				any |= dr
			}
			if any != 0 {
				s.markTouched(n)
			}
		}
	}

	// Levelized sweep: a gate evaluates at most once, after every deviating
	// input is final, through the branch-free kernel program. A node's
	// kernel arrives as one packed 16-byte record (netlist.KCell); an
	// operand is golden ^ delta per slot — two vector loads and four XORs,
	// no bit extraction and no validity branch (clean nodes carry a zero
	// delta by the Clock invariant). The result is stored back as a delta
	// vector, and readers are scheduled only when a node transitions from
	// all-slots-clean to dirty-somewhere — a node re-evaluating to a
	// different nonzero delta already scheduled them, and sched dedups the
	// rest. Scheduling during the sweep only ever targets strictly higher
	// levels, so reading s.lvHi in the loop condition keeps the bounds
	// exact while the active frontier grows.
	//
	// Per-gate cost is trimmed three ways: lo==hi gates (everything but
	// MUX) evaluate through the six-op Reed-Muller form and never fetch
	// the third operand, MUXes use the direct a^(sel&(a^b)) blend and
	// never fetch a table, and the stuck-at override pair — a scattered
	// 16-byte load in a node-indexed array — is only fetched for the few
	// nodes flagged in the fault-site bitmask (L1-resident, one bit per
	// node). The delta/kc/ovr/gq slices are pinned to a common length so
	// the kc[id] check proves the rest of the node-indexed accesses in
	// bounds. The slot loops are over fixed-size arrays and unroll.
	delta := s.delta
	kc := s.kern.KCells[:len(delta)]
	ovr := s.ovr[:len(delta)]
	gq := s.gqcur[:len(delta)]
	fs := s.fsMask
	pend := s.pend
	for lvl := s.lvLo; lvl <= s.lvHi; lvl++ {
		q := s.bucket[lvl]
		if len(q) == 0 {
			continue
		}
		s.bucket[lvl] = q[:0]
		// Phase 1: evaluate every node of the level. The transition
		// predicate is computed arithmetically and transitions are
		// collected by an unconditional store plus predicated index
		// bump — the ~1/3-taken, data-dependent branch this replaces is
		// the sweep's worst mispredict source.
		w := 0
		for _, id := range q {
			p := kc[id]
			ga, da := &gq[p.In0], &delta[p.In0]
			gb, db := &gq[p.In1], &delta[p.In1]
			var v vec
			if p.Lo == p.Hi {
				m := &netlist.ANFMasks[p.Lo&15]
				for r := 0; r < Slots; r++ {
					a := ga[r] ^ da[r]
					b := gb[r] ^ db[r]
					v[r] = m[0] ^ m[1]&a ^ m[2]&b ^ m[3]&(a&b)
				}
			} else {
				gs, ds := &gq[p.In2], &delta[p.In2]
				for r := 0; r < Slots; r++ {
					a := ga[r] ^ da[r]
					b := gb[r] ^ db[r]
					sel := gs[r] ^ ds[r]
					v[r] = a ^ sel&(a^b)
				}
			}
			if fs[uint32(id)>>6]>>(uint32(id)&63)&1 != 0 {
				o := &ovr[id]
				for r := 0; r < Slots; r++ {
					v[r] = (v[r] | o[0]) &^ o[1]
				}
			}
			g, dd := &gq[id], &delta[id]
			old := dd[0] | dd[1] | dd[2] | dd[3]
			var nw uint64
			for r := 0; r < Slots; r++ {
				dr := v[r] ^ g[r]
				dd[r] = dr
				nw |= dr
			}
			pend[w] = id
			w += int(((nw | -nw) &^ (old | -old)) >> 63)
		}
		// Phase 2: transitions join the touched list and schedule their
		// readers — always at strictly higher levels, so the buckets this
		// sweep has yet to visit absorb them. Keeping the reader walk's
		// irregular control flow out of phase 1 keeps it off the
		// evaluation loop's critical path.
		for _, id := range pend[:w] {
			s.markTouched(id)
		}
	}
}

// Active reports whether any node deviates from golden in any slot of the
// current cycle. When false, every output of every slot equals its golden
// value and comparison can be skipped wholesale — the event engine's early
// exit.
func (s *Sim) Active() bool { return len(s.touched) > 0 }

// Touched returns the nodes marked dirty this cycle — the active set of
// the delta propagation, unioned across slots. The slice is valid until
// the next BeginCycle; callers must not mutate it. Diagnostics use it to
// measure sparsity.
func (s *Sim) Touched() []netlist.Node { return s.touched }

// OutTouched returns the primary-output nodes marked dirty this cycle — a
// conservative superset of the outputs deviating from golden in any slot.
// Campaigns use it with DirtySlots to grade only the (field, slot) pairs a
// batch can possibly have corrupted. The slice is valid until the next
// BeginCycle.
func (s *Sim) OutTouched() []netlist.Node { return s.outTouched }

// DirtySlots returns a bitmask of the pattern slots in which node n
// currently deviates from golden (bit r set when slot r's delta word is
// nonzero). A clear bit is exact, not conservative: slot r's outputs at n
// equal golden, so grading it would emit nothing.
func (s *Sim) DirtySlots(n netlist.Node) uint32 {
	d := &s.delta[n]
	var m uint32
	for r := 0; r < Slots; r++ {
		m |= uint32((d[r]|-d[r])>>63) << r
	}
	return m
}

// SetReadSlot selects the pattern slot served by Node. Grading loops
// switch it as they walk the real slots.
func (s *Sim) SetReadSlot(r int) { s.readSlot = r }

// Clock captures cycle c's DFF next-state inputs, recording only the
// flip-flops whose faulty state will deviate from golden in cycle c+1 in
// some slot, and retires the cycle's deltas — every touched node's delta
// vector is zeroed, restoring the all-clean invariant BeginCycle's
// branch-free operand loads depend on. Flip-flops fed by clean nets
// converge back to the golden trace and cost nothing.
//
//vetsim:hotpath
func (s *Sim) Clock(c int) {
	s.divNode = s.divNode[:0]
	s.divWord = s.divWord[:0]
	delta := s.delta
	dffOff, dffFlat := s.lv.DFFOff, s.lv.DFFFlat
	for _, n := range s.touched {
		d := &delta[n]
		any := d[0] | d[1] | d[2] | d[3]
		if any == 0 {
			continue // re-evaluated back to golden in every slot
		}
		lo, hi := dffOff[n], dffOff[n+1]
		if lo == hi {
			*d = vec{}
			continue // latched by nothing
		}
		g := &s.gqcur[n]
		var cur vec
		for r := 0; r < Slots; r++ {
			cur[r] = g[r] ^ d[r]
		}
		*d = vec{}
		for _, di := range dffFlat[lo:hi] {
			s.divNode = append(s.divNode, s.nl.DFFs[di])
			s.divWord = append(s.divWord, cur)
		}
	}
}

// Node returns node n's current value word under the read slot's pattern,
// one machine per bit lane.
func (s *Sim) Node(n netlist.Node) uint64 {
	return s.gqcur[n][s.readSlot] ^ s.delta[n][s.readSlot]
}
