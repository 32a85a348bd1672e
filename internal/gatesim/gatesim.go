// Package gatesim implements step 2 of the methodology: exhaustive
// gate-level stuck-at fault injection campaigns on the units under test,
// driven by the exciting patterns collected by the profiler.
//
// The engine simulates 64 faulty machines per pass using the bit-parallel
// simulator, compares every output field against the golden machine each
// cycle, and classifies every fault of the collapsed list as
// uncontrollable, hardware-masked, hang, or software-visible error — the
// taxonomy of the paper's Table 4. Given a Classifier, the same pass also
// performs step 3: each corruption becomes one of the 13 instruction-level
// error models, accumulated densely per fault.
package gatesim

//vetsim:instrumented

//vetsim:deterministic

import (
	"fmt"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/netlist"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
)

// Campaign metrics. Everything is accumulated in plain locals (per
// worker, in run) and flushed with a handful of atomic adds when the
// campaign ends, so the simulation inner loops carry zero telemetry
// cost and the benchmark's numbers hold with the registry enabled.
var (
	telCampaignsEvent = telemetry.Default().Counter("gatesim_campaigns_total", "gate-level campaigns run", telemetry.L("engine", "event"))
	telCampaignsFull  = telemetry.Default().Counter("gatesim_campaigns_total", "gate-level campaigns run", telemetry.L("engine", "full"))
	telPatterns       = telemetry.Default().Counter("gatesim_patterns_simulated_total", "exciting patterns driven through faulty machines")
	telCampaignSec    = telemetry.Default().Histogram("gatesim_campaign_seconds", "wall-clock per gate-level campaign", telemetry.SecondsBuckets())
	telClassified     = [4]*telemetry.Counter{
		Uncontrollable: telemetry.Default().Counter("gatesim_faults_classified_total", "faults by campaign outcome", telemetry.L("class", "uncontrollable")),
		HWMasked:       telemetry.Default().Counter("gatesim_faults_classified_total", "faults by campaign outcome", telemetry.L("class", "hw-masked")),
		Hang:           telemetry.Default().Counter("gatesim_faults_classified_total", "faults by campaign outcome", telemetry.L("class", "hw-hang")),
		SWError:        telemetry.Default().Counter("gatesim_faults_classified_total", "faults by campaign outcome", telemetry.L("class", "sw-error")),
	}
	// Event-engine delta-propagation sparsity: cycles simulated, cycles
	// where any node deviated from golden, and nodes re-evaluated. The
	// active/total ratio is the engine's whole speed-up story.
	telEventCycles  = telemetry.Default().Counter("gatesim_event_cycles_total", "faulty-batch cycles simulated on the event engine")
	telEventActive  = telemetry.Default().Counter("gatesim_event_active_cycles_total", "event-engine cycles with a non-empty active set")
	telEventTouched = telemetry.Default().Counter("gatesim_event_nodes_touched_total", "nodes re-evaluated by delta propagation")
	// Intra-campaign sharding saturation: workers currently simulating a
	// fault batch, and the wall-clock distribution per 64-lane batch. Both
	// are observed at batch granularity — outside the delta-propagation
	// inner loops — so the engine hot path stays telemetry-free.
	telBatchBusy = telemetry.Default().Gauge("gatesim_batch_workers_busy", "intra-campaign fault-batch workers currently simulating")
	telBatchSec  = telemetry.Default().Histogram("gatesim_batch_seconds", "wall-clock per 64-lane fault batch", telemetry.ExponentialBuckets(1e-6, 4, 10))
	// Cumulative worker-seconds spent waiting at block joins (from the
	// moment a worker finds the item counter drained until the slowest
	// worker finishes): the straggler-tail signal. Zero at width 1.
	telShardIdleSec = telemetry.Default().FloatCounter("gatesim_shard_idle_seconds", "cumulative shard-worker idle seconds at campaign block joins")
)

// Engine selects the faulty-machine evaluation strategy of a campaign.
// Both engines produce byte-identical summaries and error-model
// classifications — the differential and fuzz harnesses (diff_test.go,
// fuzz_test.go) hold them to that.
type Engine uint8

const (
	// EngineEvent is the levelized event-driven engine (package
	// gatesim/engine): per fault batch, only the fanout cones of nodes
	// that actually deviate from the golden trace are re-evaluated. The
	// default.
	EngineEvent Engine = iota
	// EngineFull re-evaluates the entire netlist every cycle of every
	// batch (netlist.Simulator) — the reference implementation.
	EngineFull
)

var engineNames = [...]string{"event", "full"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// FaultClass is the paper's Table 4 taxonomy.
type FaultClass int

const (
	// Uncontrollable faults are never activated by any stimulus.
	Uncontrollable FaultClass = iota
	// HWMasked faults activate but never reach a unit output.
	HWMasked
	// Hang faults corrupt handshake/flow-control outputs, stalling the
	// machine.
	Hang
	// SWError faults corrupt architectural outputs and become
	// instruction-level errors.
	SWError
)

var classNames = [...]string{"uncontrollable", "hw-masked", "hw-hang", "sw-error"}

func (c FaultClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("FaultClass(%d)", int(c))
}

// Rule is how step 3 maps a corruption of one architectural output field
// to an error model: a constant Model, or a Value function of the pattern
// and the field's golden and faulty values. The zero Rule is unmapped: the
// field's corruptions count in the unmapped total only.
type Rule struct {
	Mapped bool
	Model  errmodel.Model
	// Value, when set, picks the model per corruption. Campaign workers
	// call it concurrently, so it must not write shared state.
	Value func(p units.Pattern, golden, faulty uint64) errmodel.Model
}

// Classifier is step 3 as a campaign sees it. The campaign asks for the
// Rule of each non-hang output field once, when it starts, and hands the
// dense classification to Absorb once, when it ends: faultModels[i] is the
// set (bit m = model m) of models fault i produced, events[m] how many
// corruptions became model m, and unmapped how many had no model. Counts
// are per fault of the full universe, so a collapsed class counts once
// per member.
type Classifier interface {
	Rule(field string) Rule
	Absorb(faultModels []uint16, events [errmodel.Count]int, unmapped int)
}

// Summary aggregates a campaign. Faults/Class always cover the full fault
// universe handed in; SimulatedSites reports how many faulty machines were
// actually simulated (smaller than TotalSites when a Collapse map pruned
// the list).
type Summary struct {
	Unit           string
	Faults         []netlist.Fault
	Class          []FaultClass // parallel to Faults
	Patterns       int
	TotalSites     int
	SimulatedSites int

	// Counts per class.
	NumUncontrollable, NumMasked, NumHang, NumSWError int
}

// Fraction returns the share of faults in the class.
func (s *Summary) Fraction(c FaultClass) float64 {
	n := 0
	switch c {
	case Uncontrollable:
		n = s.NumUncontrollable
	case HWMasked:
		n = s.NumMasked
	case Hang:
		n = s.NumHang
	case SWError:
		n = s.NumSWError
	}
	return float64(n) / float64(len(s.Faults))
}

// fieldSpan records the outputs of one named field and how a corruption
// of it is classified: as a hang, or by its Rule (the zero Rule when the
// campaign has no classifier).
type fieldSpan struct {
	outs []netlist.Output
	hang bool
	rule Rule
}

// Config bundles a campaign's execution knobs. The zero value selects the
// event engine sharded across GOMAXPROCS workers.
type Config struct {
	// Engine selects the faulty-machine evaluation strategy.
	Engine Engine
	// Workers is the intra-campaign parallelism: each golden block's
	// (pattern quad × 64-lane fault group) work items are sharded across
	// this many workers, every worker owning its own simulator (the
	// Engine's) and classification accumulators. Those accumulators are
	// ORs and sums, folded once at the end, so summaries and
	// classifications are byte-identical at every width. 0 selects
	// GOMAXPROCS; 1 runs the whole loop on the calling goroutine.
	Workers int
}

// CampaignCfg runs the exhaustive stuck-at campaign for one unit over the
// pattern list. Each pattern is applied from reset for unit.Cycles clock
// cycles; outputs are compared after every evaluation.
// cl classifies software-visible corruptions into error models; nil
// skips step 3 and classifies faults only.
func CampaignCfg(u *units.Unit, patterns []units.Pattern, cl Classifier, cfg Config) *Summary {
	return CampaignFaultsCfg(u, patterns, netlist.FaultList(u.NL), cl, cfg)
}

// CampaignFaultsCfg runs a campaign over an explicit stuck-at fault list.
func CampaignFaultsCfg(u *units.Unit, patterns []units.Pattern, faults []netlist.Fault, cl Classifier, cfg Config) *Summary {
	return campaignRun(u, patterns, faults, faults, nil, cl, cfg)
}

// Collapse is a pruned view of a fault universe, produced by the static
// analyzer (analyze.CollapseMap). It is declared here, on the consumer
// side, so the analyzer does not depend on the simulator.
type Collapse interface {
	// SimFaults returns one representative fault per equivalence class
	// that needs simulating.
	SimFaults() []netlist.Fault
	// SimIndex maps an index of the full fault universe to its
	// representative's position in SimFaults, or -1 when the class is
	// statically inert (faulty circuit provably identical to golden).
	SimIndex(fullIdx int) int
}

// CampaignCollapsedCfg runs the stuck-at campaign simulating only the
// collapse map's representative faults, then expands the results back to
// the full fault universe. Per-fault activation is computed from the
// golden pass for every fault (it costs no extra simulation), while
// output corruptions — properties of the shared faulty circuit — are
// classified once per class and expanded to every member (the events once
// per member), so Summary and the classification cover the same universe
// a full campaign would, fault for fault.
func CampaignCollapsedCfg(u *units.Unit, patterns []units.Pattern, cm Collapse, cl Classifier, cfg Config) *Summary {
	full := netlist.FaultList(u.NL)
	sim := cm.SimFaults()
	members := make([][]int32, len(sim))
	for idx := range full {
		if si := cm.SimIndex(idx); si >= 0 {
			members[si] = append(members[si], int32(idx))
		}
	}
	return campaignRun(u, patterns, full, sim, members, cl, cfg)
}

// laneReader is the view of one faulty batch the classification loop
// reads: per-node lane words. Both the full simulator (netlist.Simulator)
// and the event engine (engine.Sim, under its current read slot) satisfy
// it. classifyCycle is generic over it so the per-output calls devirtualize
// and inline for each engine.
type laneReader interface {
	Node(n netlist.Node) uint64
}

// evStats accumulates the event-engine sparsity counters of one campaign
// (or one shard worker) in plain locals; the campaign merges and flushes
// them with a handful of atomic adds at the end.
type evStats struct {
	cycles, active, touched int64
}

func (e *evStats) add(o evStats) {
	e.cycles += o.cycles
	e.active += o.active
	e.touched += o.touched
}

// campaignCtx is the shared state of one campaignRun: the stimulus, the
// fault universe, the field grouping with its rules, and the per-block
// golden traces. The traversal (run, shard.go) executes over it. During a
// block's item fan-out all of it is read-only to every worker; activated
// is owned by the calling goroutine, and each worker classifies into its
// own tally.
//
// Patterns are processed in blocks of up to goldenLanes: one lane-packed
// golden pass evaluates the whole block (pattern slot q on bit lane q).
// The faulty passes then cover the block as a flat work-item space —
// engine.Slots consecutive pattern slots share each packed event sweep —
// item i covering fault group i%nGroups of quad i/nGroups.
type campaignCtx struct {
	u        *units.Unit
	patterns []units.Pattern
	full     []netlist.Fault
	sim      []netlist.Fault
	eng      Engine

	fields    []fieldSpan
	weight    []int32 // per sim fault: the full-list faults it stands for
	activated []bool
	maxOuts   int

	gsim    *netlist.Simulator
	nGroups int // 64-lane fault groups in sim

	// Golden state of the current block, rebuilt by goldenPassBlock and
	// read-only until the next block:
	//
	//   packedNode[c][n]       node n's lane words in cycle c (lane = slot)
	//   goldenView[q][c]       slot q's bit-packed trace (64 nodes/word),
	//                          the layout engine.BindGoldenPack consumes
	//   goldenField[q][c][fi]  slot q's golden value of field fi
	//
	// All three are carved from flat per-campaign slabs.
	packedNode  [][]uint64
	goldenView  [][][]uint64
	goldenField [][][]uint64
	fieldMaskOf []uint64 // event engine: per node, bit fi set when it feeds field fi (<64)

	ev evStats
}

// goldenPassBlock runs the fault-free simulation of a block of patterns
// in one lane-packed sweep: pattern slot q drives bit lane q, so a single
// Eval per cycle yields every slot's golden values. Unit stimulus is a
// pure function of (pattern, cycle) — the campaign contract — so each
// lane's trace is exactly the broadcast trace the one-pattern golden
// pass would produce. The packed node words are transposed into the
// per-slot bit-packed views the event engine binds, and each slot's
// golden field values are assembled from its lane.
//
//vetsim:hotpath
func (cc *campaignCtx) goldenPassBlock(block []units.Pattern) {
	u, nl, gsim := cc.u, cc.u.NL, cc.gsim
	gsim.Reset()
	gsim.SetFaults(nil)
	nWords := (len(nl.Cells) + 63) / 64
	for c := 0; c < u.Cycles; c++ {
		for q, p := range block {
			gsim.SetLaneMask(1 << uint(q))
			u.Drive(gsim, p, c)
		}
		gsim.SetLaneMask(^uint64(0))
		gsim.Eval()
		pw := cc.packedNode[c]
		gsim.CopyNodes(pw)
		// Transpose (node, lane) to (lane, node), 64x64 bits at a time:
		// chunk w covers nodes 64w..64w+63, row r of the scratch matrix is
		// node 64w+r's lane words; after the transpose, row q is slot q's
		// packed bits for those nodes. Lanes >= len(block) carry stale
		// values, but their rows land in slots never read.
		var m [64]uint64
		for w := 0; w < nWords; w++ {
			base := w * 64
			n := copy(m[:], pw[base:min(base+64, len(pw))])
			for r := n; r < 64; r++ {
				m[r] = 0
			}
			transpose64(&m)
			for q := range block {
				cc.goldenView[q][c][w] = m[q]
			}
		}
		for q := range block {
			gf := cc.goldenField[q][c]
			for fi := range cc.fields {
				gf[fi] = gsim.OutputSlice(cc.fields[fi].outs, q)
			}
		}
		gsim.Clock()
	}
}

// markActivatedBlock grades activation over the full fault list from the
// block's packed golden trace, all patterns of the block at once: a
// stuck-at (n, v) is activated when any lane's golden value at n differs
// from v in any cycle. Activation is a pure OR over (pattern, cycle), so
// the lane-parallel form accumulates exactly what the per-pattern scan
// did.
//
//vetsim:hotpath
func (cc *campaignCtx) markActivatedBlock(blockLen int) {
	u := cc.u
	lanes := laneOnes(blockLen)
	for fi, f := range cc.full {
		if cc.activated[fi] {
			continue
		}
		n := f.Node
		want := uint64(0) // lanes where golden equals the stuck level
		if f.Stuck {
			want = ^uint64(0)
		}
		for c := 0; c < u.Cycles; c++ {
			if (cc.packedNode[c][n]^want)&lanes != 0 {
				cc.activated[fi] = true
				break
			}
		}
	}
}

// campaignRun is the engine shared by the full and collapsed campaigns.
// Activation is graded over the full list; faulty machines are simulated
// for the sim list only. members[si] lists the full-list indices that
// share sim fault si's faulty circuit (nil means sim IS the full list).
func campaignRun(u *units.Unit, patterns []units.Pattern, full, sim []netlist.Fault, members [][]int32, cl Classifier, cfg Config) *Summary {
	nl := u.NL
	patterns = u.ReducePatterns(patterns)
	tmCampaign := telemetry.StartTimer(telCampaignSec)

	// Group outputs by field and resolve each field's rule once.
	var fields []fieldSpan
	byName := map[string]int{}
	for _, o := range nl.Outputs {
		i, ok := byName[o.Field]
		if !ok {
			i = len(fields)
			byName[o.Field] = i
			fs := fieldSpan{hang: u.HangFields[o.Field]}
			if cl != nil && !fs.hang {
				fs.rule = cl.Rule(o.Field)
			}
			fields = append(fields, fs)
		}
		fields[i].outs = append(fields[i].outs, o)
	}

	maxOuts := 0
	for i := range fields {
		if n := len(fields[i].outs); n > maxOuts {
			maxOuts = n
		}
	}
	weight := make([]int32, len(sim))
	for si := range weight {
		weight[si] = 1
		if members != nil {
			weight[si] = int32(len(members[si]))
		}
	}

	var fieldMaskOf []uint64 // per node, bit fi set when the node feeds field fi (<64)
	if cfg.Engine == EngineEvent {
		fieldMaskOf = make([]uint64, len(nl.Cells))
		for fi, fs := range fields {
			if fi >= 64 {
				break
			}
			for _, o := range fs.outs {
				fieldMaskOf[o.Node] |= 1 << uint(fi)
			}
		}
	}

	blockCap := min(goldenLanes, len(patterns))
	nGroups := (len(sim) + 63) / 64

	// Per-campaign golden arenas, sized once and reused block after block
	// (steady-state allocation stays flat in the pattern count):
	//
	//   packedNode[c]     one lane word per node, cycle-major
	//   goldenView[q][c]  slot q's bit-packed trace, 64 nodes per word
	//   goldenField[q][c] slot q's golden field values
	nCells := len(nl.Cells)
	nWords := (nCells + 63) / 64
	packedNode := make([][]uint64, u.Cycles)
	pnSlab := make([]uint64, u.Cycles*nCells)
	for c := range packedNode {
		packedNode[c] = pnSlab[c*nCells : (c+1)*nCells : (c+1)*nCells]
	}
	goldenView := make([][][]uint64, blockCap)
	gvSlab := make([]uint64, blockCap*u.Cycles*nWords)
	goldenField := make([][][]uint64, blockCap)
	gfSlab := make([]uint64, blockCap*u.Cycles*len(fields))
	for q := 0; q < blockCap; q++ {
		goldenView[q] = make([][]uint64, u.Cycles)
		goldenField[q] = make([][]uint64, u.Cycles)
		for c := 0; c < u.Cycles; c++ {
			o := (q*u.Cycles + c) * nWords
			goldenView[q][c] = gvSlab[o : o+nWords : o+nWords]
			o = (q*u.Cycles + c) * len(fields)
			goldenField[q][c] = gfSlab[o : o+len(fields) : o+len(fields)]
		}
	}

	cc := &campaignCtx{
		u: u, patterns: patterns, full: full, sim: sim, eng: cfg.Engine,
		fields:      fields,
		weight:      weight,
		activated:   make([]bool, len(full)),
		maxOuts:     maxOuts,
		gsim:        netlist.NewSimulator(nl),
		nGroups:     nGroups,
		packedNode:  packedNode,
		goldenView:  goldenView,
		goldenField: goldenField,
		fieldMaskOf: fieldMaskOf,
	}

	t := cc.run(cfg.shardWidth(len(patterns), nGroups))

	// Expand each class's verdict to its members: every member shares the
	// representative's faulty circuit, so it saw exactly its corruptions.
	hang := make([]bool, len(full))
	swerr := make([]bool, len(full))
	faultModels := make([]uint16, len(full))
	for si := range sim {
		if members == nil {
			hang[si], swerr[si], faultModels[si] = t.hang[si], t.swerr[si], t.models[si]
			continue
		}
		for _, idx := range members[si] {
			hang[idx], swerr[idx], faultModels[idx] = t.hang[si], t.swerr[si], t.models[si]
		}
	}
	if cl != nil {
		cl.Absorb(faultModels, t.events, t.unmapped)
	}

	s := &Summary{
		Unit: u.Name, Faults: full, Patterns: len(patterns),
		TotalSites:     len(full),
		SimulatedSites: len(sim),
		Class:          make([]FaultClass, len(full)),
	}
	for i := range full {
		switch {
		case hang[i]:
			s.Class[i] = Hang
			s.NumHang++
		case swerr[i]:
			s.Class[i] = SWError
			s.NumSWError++
		case cc.activated[i]:
			s.Class[i] = HWMasked
			s.NumMasked++
		default:
			s.Class[i] = Uncontrollable
			s.NumUncontrollable++
		}
	}

	// Flush the campaign's telemetry in one batch of atomic adds.
	tmCampaign.Stop()
	if cfg.Engine == EngineEvent {
		telCampaignsEvent.Inc()
	} else {
		telCampaignsFull.Inc()
	}
	telPatterns.Add(int64(len(patterns)))
	telClassified[Uncontrollable].Add(int64(s.NumUncontrollable))
	telClassified[HWMasked].Add(int64(s.NumMasked))
	telClassified[Hang].Add(int64(s.NumHang))
	telClassified[SWError].Add(int64(s.NumSWError))
	telEventCycles.Add(cc.ev.cycles)
	telEventActive.Add(cc.ev.active)
	telEventTouched.Add(cc.ev.touched)
	return s
}
