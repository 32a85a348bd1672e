// The campaign traversal: one loop over (pattern block, quad, fault group).
//
// A campaign's hot loop is pattern quad × 64-lane fault batch, and every
// such work item is independent given its patterns' golden traces: the
// golden arrays are fault-free state, computed once per pattern block and
// read-only thereafter. run exploits that structure. The calling
// goroutine runs the block's lane-packed golden pass, then releases the
// block's quads×nGroups items to P workers, which drain them through a
// dynamic (work-stealing) counter — worker 0 is the calling goroutine
// itself, workers 1..P-1 are persistent helper goroutines — and joins.
// Each worker owns a private simulator (the event engine, or the full
// simulator under EngineFull), grading scratch and a tally, so the
// simulation and classification inner loops take no locks and share no
// mutable state. At width 1 there are no helpers and a block is a plain
// loop.
//
// Determinism: each worker classifies the corruptions it finds in place
// (classifyCycle), into its own tally indexed by simulated fault. Every
// quantity a tally keeps is an OR (the per-fault model set, hang and
// sw-error flags) or a sum (the per-model event counts, weighted by class
// size, and the unmapped count), so neither the order in which items run
// nor which worker runs them can change it. run folds the tallies once,
// after the last block, and campaignRun expands each collapsed class to
// its members once — so summaries and classifications are byte-identical
// at every worker count (enforced by parallel_test.go under -race).
//
// Steady state allocates nothing: simulators, engines, scratch words and
// tallies are created once per campaign and reused across blocks, and
// telemetry accumulates in per-worker locals merged once at the end.
package gatesim

//vetsim:instrumented

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim/engine"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
)

// goldenLanes is the number of patterns that share one lane-packed golden
// pass (one pattern per bit lane of the dense simulator's words).
const goldenLanes = 64

// shardWidth resolves the intra-campaign worker count against the largest
// block's work-item space (pattern quads × 64-lane fault groups): 0 takes
// GOMAXPROCS, and the width never exceeds the item count (extra workers
// would only idle).
func (c Config) shardWidth(nPatterns, nGroups int) int {
	p := c.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	quads := (min(nPatterns, goldenLanes) + engine.Slots - 1) / engine.Slots
	return max(1, min(p, quads*nGroups))
}

// shardStride resolves the work-stealing pull granularity of one block:
// how many consecutive items a worker claims per counter bump.
// Profile-driven (gatesim_shard_idle_seconds): one-item pulls bounce the
// shared counter's cache line once per ~100µs batch, while coarse static
// chunks leave stragglers holding the join open.
// The compromise keeps at least 16 pulls per worker — a short tail — and
// caps the stride at 64 so a single pull never dominates a block.
func shardStride(nItems, workers int) int {
	s := nItems / (workers * 16)
	if s < 1 {
		s = 1
	}
	if s > 64 {
		s = 64
	}
	return s
}

// paddedCounter is the shared dynamic work-item counter, alone on its
// cache line: the leading pad keeps it clear of whatever the allocator
// places before it, the trailing pad keeps the block state declared after
// it from false-sharing with worker Add traffic.
type paddedCounter struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// tally is one worker's classification of the corruptions it found,
// indexed by simulated fault: models[si] is the set of error models
// (bit m = model m) sim fault si produced, hang[si] and swerr[si] whether
// it corrupted a hang-critical or an architectural field. events and
// unmapped count corruptions once per member of the simulated fault's
// class. ORs and sums only, so tallies fold in any order.
type tally struct {
	models      []uint16
	hang, swerr []bool
	events      [errmodel.Count]int
	unmapped    int
}

func (t *tally) add(o *tally) {
	for si, m := range o.models {
		t.models[si] |= m
		t.hang[si] = t.hang[si] || o.hang[si]
		t.swerr[si] = t.swerr[si] || o.swerr[si]
	}
	for m, n := range o.events {
		t.events[m] += n
	}
	t.unmapped += o.unmapped
}

// shardWorker is the per-worker mutable state: a private simulator,
// grading scratch and a tally, plus event-engine counters merged once per
// campaign. Exactly one of esim and fsim is set, by the campaign's Engine.
type shardWorker struct {
	esim  *engine.Sim        // EngineEvent
	fsim  *netlist.Simulator // EngineFull
	ws    []uint64           // lane words of the field under grade
	t     tally
	lastQ int // block slot of the quad the engine's golden is bound to
	ev    evStats
	// doneAt is when, on the campaign clock, the worker found the current
	// block's item counter drained: written before its WaitGroup Done,
	// read by the calling goroutine after the Wait.
	doneAt float64
}

// classifyCycle is the classification inner loop: it grades the output
// fields of one cycle under pattern p against p's golden field values gf
// and classifies every corruption into t. fieldMask bit fi set means
// field fi may deviate and must be graded; the full engine passes
// all-ones, the event engine derives per-slot masks from the output nodes
// its delta propagation dirtied (a clean field's anyDiff is identically
// zero, so skipping it changes nothing). Fields at index ≥64 are always
// graded.
//
// anyDiff holds the lanes where some output bit of the field differs from
// golden. netlist.Builder.Build rejects a (field, bit) declared twice, so
// such a lane's assembled value differs from golden too: a hang field or
// a constant rule needs no per-lane assembly, and only a Value rule
// builds the faulty value, lane by set lane.
//
//vetsim:hotpath
func classifyCycle[S laneReader](cc *campaignCtx, t *tally, p units.Pattern, base, groupLen int, ls S, fieldMask uint64, gf []uint64, ws []uint64) {
	live := laneOnes(groupLen)
	for fi := range cc.fields {
		if fi < 64 && fieldMask>>uint(fi)&1 == 0 {
			continue
		}
		fs := &cc.fields[fi]
		golden := gf[fi]
		lw := ws[:len(fs.outs)]
		var anyDiff uint64
		for i, o := range fs.outs {
			w := ls.Node(o.Node)
			lw[i] = w
			gbit := uint64(0)
			if golden>>o.Bit&1 == 1 {
				gbit = ^uint64(0)
			}
			anyDiff |= w ^ gbit
		}
		anyDiff &= live
		if anyDiff == 0 {
			continue
		}
		switch r := &fs.rule; {
		case fs.hang:
			for m := anyDiff; m != 0; m &= m - 1 {
				t.hang[base+bits.TrailingZeros64(m)] = true
			}
		case r.Value != nil:
			for m := anyDiff; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				var faulty uint64
				for i, o := range fs.outs {
					faulty |= (lw[i] >> uint(lane) & 1) << o.Bit
				}
				model := r.Value(p, golden, faulty)
				si := base + lane
				t.swerr[si] = true
				t.models[si] |= 1 << uint(model)
				t.events[model] += int(cc.weight[si])
			}
		default:
			var set uint16
			if r.Mapped {
				set = 1 << uint(r.Model)
			}
			n := 0
			for m := anyDiff; m != 0; m &= m - 1 {
				si := base + bits.TrailingZeros64(m)
				t.swerr[si] = true
				t.models[si] |= set
				n += int(cc.weight[si])
			}
			if r.Mapped {
				t.events[r.Model] += n
			} else {
				t.unmapped += n
			}
		}
	}
}

// classifyQuadCycle grades one active cycle of a quad-packed event sweep
// over the quad's patterns pats. The per-slot field masks come from the
// touched output nodes gated by DirtySlots — exact per slot, so a slot
// whose fault cone stayed clean this cycle grades nothing.
func (cc *campaignCtx) classifyQuadCycle(es *engine.Sim, t *tally, pats []units.Pattern, q0, base, groupLen, c int, ws []uint64) {
	var mask [engine.Slots]uint64
	for _, n := range es.OutTouched() {
		fm := cc.fieldMaskOf[n]
		ds := es.DirtySlots(n)
		for r := 0; r < engine.Slots; r++ {
			mask[r] |= fm & -uint64(ds>>uint(r)&1)
		}
	}
	big := len(cc.fields) > 64
	for r := range pats {
		if mask[r] == 0 && !big {
			continue
		}
		es.SetReadSlot(r)
		classifyCycle(cc, t, pats[r], base, groupLen, es, mask[r], cc.goldenField[q0+r][c], ws)
	}
}

// runBatch simulates one work item — fault group gi under the pattern
// quad starting at block slot q0 — on this worker's private machines,
// classifying its corruptions into the worker's tally. This is the one
// item body, and under EngineFull the one place the dense simulator runs
// faulty machines. The event engine's golden binding is cached per quad
// (lastQ), so stride runs over one quad rebind nothing.
//
//vetsim:hotpath
func (w *shardWorker) runBatch(cc *campaignCtx, block []units.Pattern, q0, qlen, gi int) {
	u := cc.u
	base := gi * 64
	group := cc.sim[base:min(base+64, len(cc.sim))]
	pats := block[q0 : q0+qlen]
	if w.esim != nil {
		// Event-driven: seed only the faulty pins and diverged flip-flops,
		// propagate deltas through the fanout — all slots in one pass —
		// and skip output grading entirely on quiet cycles.
		if q0 != w.lastQ {
			w.esim.BindGoldenPack(cc.goldenView[q0 : q0+qlen])
			w.lastQ = q0
		}
		w.esim.SetFaults(group)
		w.ev.cycles += int64(u.Cycles) * int64(qlen)
		for c := 0; c < u.Cycles; c++ {
			w.esim.BeginCycle(c)
			if w.esim.Active() {
				w.ev.active++
				w.ev.touched += int64(len(w.esim.Touched()))
				cc.classifyQuadCycle(w.esim, &w.t, pats, q0, base, len(group), c, w.ws)
			}
			w.esim.Clock(c)
		}
		return
	}
	// EngineFull: one full pass per real slot — the packed engine's width
	// does not apply here.
	for r, p := range pats {
		gf := cc.goldenField[q0+r]
		w.fsim.Reset()
		w.fsim.SetFaults(group)
		for c := 0; c < u.Cycles; c++ {
			u.Drive(w.fsim, p, c)
			w.fsim.Eval()
			classifyCycle(cc, &w.t, p, base, len(group), w.fsim, ^uint64(0), gf[c], w.ws)
			w.fsim.Clock()
		}
	}
}

// run is the campaign traversal, p workers wide, and returns the folded
// tally. Per golden block the calling goroutine runs the lane-packed
// golden pass and grades activation, then releases the helper goroutines
// (one token each), drains items alongside them as worker 0 and joins.
// Shared per-block state (golden arenas, the current block, the pull
// stride) is written only before the token sends and read only after the
// receives, and each tally is read only after the last join — all
// accesses are ordered by channel/WaitGroup happens-before edges, so the
// hot loop itself is lock-free and the whole campaign is race-clean. With
// p == 1 there are no helpers: no goroutine starts, no token is sent and
// the join is a no-op.
func (cc *campaignCtx) run(p int) *tally {
	nl := cc.u.NL
	clock := telemetry.StartTimer(nil) // campaign-relative clock; Stop only reads

	// One levelization shared by every worker's engine: it is read-only
	// after construction and by far the largest per-engine allocation.
	var lv *analyze.Levelization
	if cc.eng == EngineEvent {
		lv = analyze.Levelize(nl)
	}
	workers := make([]*shardWorker, p)
	for i := range workers {
		n := len(cc.sim)
		w := &shardWorker{ws: make([]uint64, cc.maxOuts),
			t: tally{models: make([]uint16, n), hang: make([]bool, n), swerr: make([]bool, n)}}
		if cc.eng == EngineEvent {
			w.esim = engine.New(nl, lv)
		} else {
			w.fsim = netlist.NewSimulator(nl)
		}
		workers[i] = w
	}

	var (
		block  []units.Pattern // golden block under simulation; written pre-token
		nItems int             // items this block; written pre-token
		stride int             // pull granularity; written pre-token
		next   paddedCounter   // dynamic item counter (work stealing)
		start  = make(chan struct{})
		joinWg sync.WaitGroup
	)
	// drain is one worker's share of a block: pull strides off the item
	// counter until it runs dry.
	drain := func(wi int) {
		w := workers[wi]
		telBatchBusy.Add(1)
		w.lastQ = -1
		for {
			lo := int(next.v.Add(int64(stride))) - stride
			if lo >= nItems {
				break
			}
			for item, hi := lo, min(lo+stride, nItems); item < hi; item++ {
				q0 := item / cc.nGroups * engine.Slots
				tm := telemetry.StartTimer(telBatchSec)
				w.runBatch(cc, block, q0, min(engine.Slots, len(block)-q0), item%cc.nGroups)
				tm.Stop()
			}
		}
		w.doneAt = clock.Stop()
		telBatchBusy.Add(-1)
	}
	for wi := 1; wi < p; wi++ {
		go func(wi int) {
			for range start {
				drain(wi)
				joinWg.Done()
			}
		}(wi)
	}

	idleSec := 0.0
	for bs := 0; bs < len(cc.patterns); bs += goldenLanes {
		block = cc.patterns[bs:min(bs+goldenLanes, len(cc.patterns))]
		cc.goldenPassBlock(block)
		cc.markActivatedBlock(len(block))
		nItems = (len(block) + engine.Slots - 1) / engine.Slots * cc.nGroups
		stride = shardStride(nItems, p)
		next.v.Store(0)
		joinWg.Add(p - 1)
		for range workers[1:] {
			start <- struct{}{}
		}
		drain(0)
		joinWg.Wait()
		// Workers that drained the counter early sat idle until the join
		// (the straggler tail this metric exists to expose).
		joined := clock.Stop()
		for _, w := range workers {
			idleSec += joined - w.doneAt
		}
	}
	close(start)
	telShardIdleSec.Add(idleSec)
	t := &workers[0].t
	for _, w := range workers {
		cc.ev.add(w.ev)
		if w != workers[0] {
			t.add(&w.t)
		}
	}
	return t
}
