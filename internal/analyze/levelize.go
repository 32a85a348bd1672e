package analyze

import (
	"sort"

	"gpufaultsim/internal/netlist"
)

// Levelization is the static traversal backbone of event-driven gate
// simulation: every combinational cell is assigned a topological level
// (sources — primary inputs, constants and DFF outputs — sit at level 0,
// every gate one past its deepest input), and every net carries its exact
// fanout: the combinational gates that read it and the DFFs that latch it
// as next-state. An event-driven simulator seeds changed nets and sweeps
// strictly level-by-level, so each gate is re-evaluated at most once per
// cycle and only when one of its inputs actually changed.
type Levelization struct {
	// Level[n] is node n's topological level. Sources are level 0;
	// a combinational gate is 1 + max(level of its inputs).
	Level []int32
	// MaxLevel is the deepest combinational level in the circuit.
	MaxLevel int
	// The fanout relation in CSR form: net n's combinational readers are
	// ReadersFlat[ReadersOff[n]:ReadersOff[n+1]], deduplicated and in
	// ascending node order, with ReadersLvl carrying each reader's level
	// in the matching position. The flat layout keeps the event
	// scheduler's hottest loop — fanning a changed net out to its readers
	// — on sequential memory instead of chasing per-net slice headers.
	ReadersOff  []int32
	ReadersFlat []netlist.Node
	ReadersLvl  []int32
	// The DFF-capture relation in CSR form: the DFFs (as indices into
	// Netlist.DFFs) whose next-state input is net n are
	// DFFFlat[DFFOff[n]:DFFOff[n+1]].
	DFFOff  []int32
	DFFFlat []int32
}

// Levelize computes the levelized fanout view of a netlist. It reuses the
// builder's validated evaluation order (Netlist.EvalOrder), so a single
// forward sweep suffices: every input of a swept gate already has its
// final level.
func Levelize(nl *netlist.Netlist) *Levelization {
	n := len(nl.Cells)
	lv := &Levelization{
		Level:      make([]int32, n),
		ReadersOff: make([]int32, n+1),
		DFFOff:     make([]int32, n+1),
	}
	order := nl.EvalOrder()

	// uniqueIns visits each distinct input of a cell once (a gate reading
	// the same net on two pins is one reader, not two).
	uniqueIns := func(c *netlist.Cell, f func(netlist.Node)) {
		k := c.Kind.NumIns()
		for i := 0; i < k; i++ {
			dup := false
			for j := 0; j < i; j++ {
				if c.In[j] == c.In[i] {
					dup = true
					break
				}
			}
			if !dup {
				f(c.In[i])
			}
		}
	}

	// Pass 1: levels and per-net reader counts.
	for _, id := range order {
		c := &nl.Cells[id]
		var lvl int32
		for i := 0; i < c.Kind.NumIns(); i++ {
			if l := lv.Level[c.In[i]]; l >= lvl {
				lvl = l + 1
			}
		}
		lv.Level[id] = lvl
		if int(lvl) > lv.MaxLevel {
			lv.MaxLevel = int(lvl)
		}
		uniqueIns(c, func(in netlist.Node) { lv.ReadersOff[in+1]++ })
	}
	for i := 0; i < n; i++ {
		lv.ReadersOff[i+1] += lv.ReadersOff[i]
	}

	// Pass 2: fill the CSR arrays, then sort each row into ascending node
	// order (EvalOrder is a dependency order, not an id order).
	total := lv.ReadersOff[n]
	lv.ReadersFlat = make([]netlist.Node, total)
	lv.ReadersLvl = make([]int32, total)
	cursor := make([]int32, n)
	copy(cursor, lv.ReadersOff[:n])
	for _, id := range order {
		c := &nl.Cells[id]
		uniqueIns(c, func(in netlist.Node) {
			pos := cursor[in]
			cursor[in] = pos + 1
			lv.ReadersFlat[pos] = id
		})
	}
	for i := 0; i < n; i++ {
		row := lv.ReadersFlat[lv.ReadersOff[i]:lv.ReadersOff[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	}
	for i, r := range lv.ReadersFlat {
		lv.ReadersLvl[i] = lv.Level[r]
	}
	for _, q := range nl.DFFs {
		lv.DFFOff[nl.Cells[q].In[0]+1]++
	}
	for i := 0; i < n; i++ {
		lv.DFFOff[i+1] += lv.DFFOff[i]
	}
	lv.DFFFlat = make([]int32, lv.DFFOff[n])
	dcur := make([]int32, n)
	copy(dcur, lv.DFFOff[:n])
	for i, q := range nl.DFFs {
		d := nl.Cells[q].In[0]
		lv.DFFFlat[dcur[d]] = int32(i)
		dcur[d]++
	}
	return lv
}
