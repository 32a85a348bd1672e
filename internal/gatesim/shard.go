// The campaign traversal: one loop over (pattern block, quad, fault group).
//
// A campaign's hot loop is pattern quad × 64-lane fault batch, and every
// such work item is independent given its patterns' golden traces: the
// golden arrays are fault-free state, computed once per pattern block and
// read-only thereafter. run exploits that structure. The calling
// goroutine runs the block's lane-packed golden pass, then covers the
// block in rounds: a round's roundQuads×nGroups items drain through a
// dynamic (work-stealing) counter into P workers — worker 0 is the
// calling goroutine itself, workers 1..P-1 are persistent helper
// goroutines. Each worker owns a private simulator (the event engine, or
// the full simulator under EngineFull) and grading scratch, so the
// simulation inner loops take no locks and share no mutable state. At
// width 1 there are no helpers and a round is a plain loop.
//
// Determinism: workers do not touch the grader. Instead each item records
// its corruption occurrences — (field, sim-index, golden, faulty) tuples,
// appended in the (cycle, field, lane) order recordCycle visits them —
// into its worker's per-slot buffers, and publishes one buffer span per
// pattern slot. After the per-round join, the calling goroutine replays
// the spans pattern-major — quad ascending, slot ascending, group
// ascending — performing member expansion, hang dedup and sink callbacks
// exactly as a one-pattern-at-a-time loop would, so summaries,
// classifications and sink event streams are byte-identical at every
// worker count (enforced by parallel_test.go under -race).
//
// Steady state allocates nothing: simulators, engines, scratch words,
// per-worker event buffers and the span table are created once per
// campaign and reused across rounds (buffers are truncated, not freed),
// and telemetry accumulates in per-worker locals merged once at the end.
package gatesim

//vetsim:instrumented

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gpufaultsim/internal/analyze"
	"gpufaultsim/internal/gatesim/engine"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
)

// goldenLanes is the number of patterns that share one lane-packed golden
// pass (one pattern per bit lane of the dense simulator's words).
const goldenLanes = 64

// roundItems is the work-item depth a round aims for. A round is the
// unit of fan-out, join and replay: its corruption events sit in the
// workers' buffers until the join, so a deep round costs memory
// (whole-block rounds held 8x the bytes on the WSC campaign, and at one
// worker 16-pattern rounds already ran ~4% slower than one-quad rounds as
// the buffers left the cache), while a shallow one pays the join and its
// straggler tail too often (16-pattern rounds cost the fetch campaign 9%
// at 2 workers). Both effects scale with the round's item count, not its
// pattern count — the WSC has 296 fault groups, fetch 26 — so the round
// is sized in items. Measured on the gate_sweep campaigns at 1 and 2
// workers, every unit is within noise of its best fixed size anywhere
// from ~200 to ~600 items a round; 512 puts the WSC at two quads and the
// decoder and fetch at the whole golden block.
const roundItems = 512

// roundQuads resolves how many pattern quads form a round: the smallest
// power of two — so rounds tile the golden block exactly — whose item
// count over nGroups fault groups reaches roundItems, at most the whole
// block.
func roundQuads(nGroups int) int {
	q := 1
	for q < goldenLanes/engine.Slots && q*nGroups < roundItems {
		q *= 2
	}
	return q
}

// shardWidth resolves the intra-campaign worker count against the largest
// round's work-item space (pattern quads × 64-lane fault groups): 0 takes
// GOMAXPROCS, and the width never exceeds the item count (extra workers
// would only idle).
func (c Config) shardWidth(nPatterns, nGroups int) int {
	p := c.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	quads := min((nPatterns+engine.Slots-1)/engine.Slots, roundQuads(nGroups))
	return max(1, min(p, quads*nGroups))
}

// shardStride resolves the work-stealing pull granularity of one round:
// how many consecutive items a worker claims per counter bump.
// Profile-driven (gatesim_shard_idle_seconds): one-item pulls bounce the
// shared counter's cache line once per ~100µs batch, while coarse static
// chunks leave stragglers holding the round open.
// The compromise keeps at least 16 pulls per worker — a short tail — and
// caps the stride at 64 so a single pull never dominates a round.
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
// places before it, the trailing pad keeps the round state declared after
// it from false-sharing with worker Add traffic.
type paddedCounter struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// shardEvent is one corruption occurrence recorded by a worker: sim fault
// si corrupted field (making it faulty where golden was expected). The
// pattern and cycle are implicit in the buffer position — merging happens
// per (item, slot) span, and buffers are appended in cycle order.
type shardEvent struct {
	field  int32
	si     int32
	golden uint64
	faulty uint64
}

// evSpan locates one (work item, pattern slot)'s recorded events: the
// half-open range [start, end) of the worker's per-slot event buffer.
// Each span is written by exactly one worker (the item's owner) before
// the round join and read by the calling goroutine after it — disjoint
// writes, WaitGroup-ordered reads.
type evSpan struct {
	worker, start, end int32
}

// shardWorker is the per-worker mutable state: a private simulator,
// grading scratch and per-slot event buffers, plus event-engine counters
// merged once per campaign. Exactly one of esim and fsim is set, by the
// campaign's Engine.
type shardWorker struct {
	esim  *engine.Sim        // EngineEvent
	fsim  *netlist.Simulator // EngineFull
	ws    []uint64           // lane words of the field under grade
	evbuf [engine.Slots][]shardEvent
	lastQ int // pattern quad the engine's golden is bound to
	ev    evStats
	// doneAt is when, on the campaign clock, the worker found the current
	// round's item counter drained: written before its WaitGroup Done,
	// read by the calling goroutine after the Wait.
	doneAt float64
}

// recordCycle is the classification inner loop: it grades the output
// fields of one cycle under one pattern slot against the slot's golden
// field values gf, appending every corruption occurrence to buf in
// (field, lane) order. fieldMask bit fi set means field fi may deviate
// and must be graded; the full engine passes all-ones, the event engine
// derives per-slot masks from the output nodes its delta propagation
// dirtied (a clean field's anyDiff is identically zero, so skipping it
// emits exactly nothing — byte-identity is preserved). Fields at index
// ≥64 are always graded. Member expansion, hang dedup and sink callbacks
// happen later, in mergeEvents, on the calling goroutine.
//
//vetsim:hotpath
func recordCycle[S laneReader](g *grader, base, groupLen int, ls S, fieldMask uint64, gf []uint64, ws []uint64, buf []shardEvent) []shardEvent {
	for fi := range g.fields {
		if fi < 64 && fieldMask>>uint(fi)&1 == 0 {
			continue
		}
		fs := &g.fields[fi]
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
		if anyDiff == 0 {
			continue
		}
		for lane := 0; lane < groupLen; lane++ {
			if anyDiff>>lane&1 == 0 {
				continue
			}
			var faulty uint64
			for i, o := range fs.outs {
				faulty |= (lw[i] >> uint(lane) & 1) << o.Bit
			}
			if faulty == golden {
				continue
			}
			buf = append(buf, shardEvent{field: int32(fi), si: int32(base + lane), golden: golden, faulty: faulty})
		}
	}
	return buf
}

// recordQuadCycle grades one active cycle of a quad-packed event sweep.
// The per-slot field masks come from the touched output nodes gated by
// DirtySlots — exact per slot, so a slot whose fault cone stayed clean
// this cycle records nothing extra — and each graded slot's corruption
// occurrences append to that slot's buffer for the pattern-major replay.
func (cc *campaignCtx) recordQuadCycle(es *engine.Sim, q0, qlen, base, groupLen, c int, ws []uint64, bufs *[engine.Slots][]shardEvent) {
	var mask [engine.Slots]uint64
	for _, n := range es.OutTouched() {
		fm := cc.fieldMaskOf[n]
		ds := es.DirtySlots(n)
		for r := 0; r < engine.Slots; r++ {
			mask[r] |= fm & -uint64(ds>>uint(r)&1)
		}
	}
	big := len(cc.g.fields) > 64
	for r := 0; r < qlen; r++ {
		if mask[r] == 0 && !big {
			continue
		}
		es.SetReadSlot(r)
		bufs[r] = recordCycle(cc.g, base, groupLen, es, mask[r], cc.goldenField[q0+r][c], ws, bufs[r])
	}
}

// runBatch simulates one work item — fault group gi under the pattern
// quad starting at block slot q0 — on this worker's private machines,
// recording corruption occurrences into the worker's per-slot buffers.
// This is the one item body, and under EngineFull the one place the dense
// simulator runs faulty machines. The event engine's golden binding is
// cached per quad (lastQ), so stride runs over one quad rebind nothing.
//
//vetsim:hotpath
func (w *shardWorker) runBatch(cc *campaignCtx, block []units.Pattern, qb, q0, qlen, gi int) {
	u := cc.u
	base := gi * 64
	group := cc.sim[base:min(base+64, len(cc.sim))]
	if w.esim != nil {
		// Event-driven: seed only the faulty pins and diverged flip-flops,
		// propagate deltas through the fanout — all slots in one pass —
		// and skip output grading entirely on quiet cycles.
		if qb != w.lastQ {
			w.esim.BindGoldenPack(cc.goldenView[q0 : q0+qlen])
			w.lastQ = qb
		}
		w.esim.SetFaults(group)
		w.ev.cycles += int64(u.Cycles) * int64(qlen)
		for c := 0; c < u.Cycles; c++ {
			w.esim.BeginCycle(c)
			if w.esim.Active() {
				w.ev.active++
				w.ev.touched += int64(len(w.esim.Touched()))
				cc.recordQuadCycle(w.esim, q0, qlen, base, len(group), c, w.ws, &w.evbuf)
			}
			w.esim.Clock(c)
		}
		return
	}
	// EngineFull: one full pass per real slot — the packed engine's width
	// does not apply here, but the per-slot recording and replay do.
	for r := 0; r < qlen; r++ {
		p := block[q0+r]
		gf := cc.goldenField[q0+r]
		w.fsim.Reset()
		w.fsim.SetFaults(group)
		for c := 0; c < u.Cycles; c++ {
			u.Drive(w.fsim, p, c)
			w.fsim.Eval()
			w.evbuf[r] = recordCycle(cc.g, base, len(group), w.fsim, ^uint64(0), gf[c], w.ws, w.evbuf[r])
			w.fsim.Clock()
		}
	}
}

// mergeEvents replays recorded events into the grader on the calling
// goroutine. Spans replay pattern-major (quad, slot, group ascending) and
// each was appended in (cycle, field, lane) order, so member expansion,
// hang dedup and sink callbacks fire in exactly the sequence a
// one-pattern-at-a-time loop produces.
//
//vetsim:hotpath
func (cc *campaignCtx) mergeEvents(p units.Pattern, events []shardEvent) {
	g := cc.g
	for i := range events {
		e := &events[i]
		fs := &g.fields[e.field]
		var mem []int32
		if g.members == nil {
			g.single[0] = e.si
			mem = g.single[:]
		} else {
			mem = g.members[e.si]
		}
		for _, m := range mem {
			idx := int(m)
			if fs.hang {
				if !g.hang[idx] && g.sink != nil {
					g.sink.Hang(idx, p, fs.name)
				}
				g.hang[idx] = true
			} else {
				g.swerr[idx] = true
				if g.sink != nil {
					g.sink.Corruption(idx, p, fs.name, e.golden, e.faulty)
				}
			}
		}
	}
}

// run is the campaign traversal, p workers wide. Per golden block the
// calling goroutine runs the lane-packed golden pass and grades
// activation; per round within the block it releases the helper
// goroutines (one token each), drains items alongside them as worker 0,
// joins, and replays the recorded events. Shared per-round state (golden
// arenas, the current block and round, the pull stride) is written only
// before the token sends and read only after the receives; per-item spans
// pass back through the WaitGroup join — all accesses are ordered by
// channel/WaitGroup happens-before edges, so the hot loop itself is
// lock-free and the whole campaign is race-clean. With p == 1 there are
// no helpers: no goroutine starts, no token is sent and the join is a
// no-op.
func (cc *campaignCtx) run(p int) {
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
		w := &shardWorker{ws: make([]uint64, cc.maxOuts)}
		if cc.eng == EngineEvent {
			w.esim = engine.New(nl, lv)
		} else {
			w.fsim = netlist.NewSimulator(nl)
		}
		workers[i] = w
	}
	roundLen := roundQuads(cc.nGroups) * engine.Slots // patterns per round
	spanOf := make([]evSpan, roundLen*cc.nGroups)     // one per (item, slot)

	var (
		block  []units.Pattern // golden block under simulation; written pre-token
		base   int             // block slot of the round's first pattern; written pre-token
		nItems int             // items this round; written pre-token
		stride int             // pull granularity; written pre-token
		next   paddedCounter   // dynamic item counter (work stealing)
		start  = make(chan struct{})
		joinWg sync.WaitGroup
	)
	// drain is one worker's share of a round: pull strides off the item
	// counter until it runs dry.
	drain := func(wi int) {
		w := workers[wi]
		telBatchBusy.Add(1)
		w.lastQ = -1
		for r := range w.evbuf {
			w.evbuf[r] = w.evbuf[r][:0]
		}
		for {
			lo := int(next.v.Add(int64(stride))) - stride
			if lo >= nItems {
				break
			}
			for item, hi := lo, min(lo+stride, nItems); item < hi; item++ {
				qb, gi := item/cc.nGroups, item%cc.nGroups
				q0 := base + qb*engine.Slots
				qlen := min(engine.Slots, len(block)-q0)
				tm := telemetry.StartTimer(telBatchSec)
				var s0 [engine.Slots]int
				for r := 0; r < qlen; r++ {
					s0[r] = len(w.evbuf[r])
				}
				w.runBatch(cc, block, qb, q0, qlen, gi)
				for r := 0; r < qlen; r++ {
					spanOf[item*engine.Slots+r] = evSpan{worker: int32(wi), start: int32(s0[r]), end: int32(len(w.evbuf[r]))}
				}
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
	for rs := 0; rs < len(cc.patterns); rs += roundLen {
		if rs%goldenLanes == 0 {
			block = cc.patterns[rs:min(rs+goldenLanes, len(cc.patterns))]
			cc.goldenPassBlock(block)
			cc.markActivatedBlock(len(block))
		}
		base = rs % goldenLanes
		qbs := (min(roundLen, len(block)-base) + engine.Slots - 1) / engine.Slots
		nItems = qbs * cc.nGroups
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
		// Replay pattern-major: quad, then slot, then group — the event
		// order of a one-pattern-at-a-time loop.
		for qb := 0; qb < qbs; qb++ {
			q0 := base + qb*engine.Slots
			qlen := min(engine.Slots, len(block)-q0)
			for r := 0; r < qlen; r++ {
				pat := block[q0+r]
				for gi := 0; gi < cc.nGroups; gi++ {
					sp := spanOf[(qb*cc.nGroups+gi)*engine.Slots+r]
					cc.mergeEvents(pat, workers[sp.worker].evbuf[r][sp.start:sp.end])
				}
			}
		}
	}
	close(start)
	telShardIdleSec.Add(idleSec)
	for _, w := range workers {
		cc.ev.add(w.ev)
	}
}
