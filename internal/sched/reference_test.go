package sched

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
)

// listScheduleReference is the original, allocation-per-call list scheduler,
// kept verbatim as the executable specification of Scheduler: the
// differential tests check that the arena kernel reproduces its schedules,
// critical sets and errors exactly. It must not be modified for performance.
func listScheduleReference(d *dfg.DFG, a Assignment, cfg machine.Config) (*Schedule, error) {
	if err := a.Validate(d); err != nil {
		return nil, err
	}
	macros, macroOf, err := buildMacros(d, a, cfg)
	if err != nil {
		return nil, err
	}
	succs, preds := macroEdges(d, macros, macroOf)
	if len(topoMacros(len(macros), succs, preds)) != len(macros) {
		return nil, fmt.Errorf("sched: ISE groups are mutually dependent (contracted graph is cyclic)")
	}

	// Scheduling priority (paper §4.3): number of child operations.
	sp := make([]int, len(macros))
	for m := range macros {
		sp[m] = len(succs[m])
	}

	indeg := make([]int, len(macros))
	for m := range macros {
		indeg[m] = len(preds[m])
	}
	earliest := make([]int, len(macros))
	for m := range macros {
		earliest[m] = 1
	}
	issue := make([]int, len(macros))
	var ready []int
	for m := range macros {
		if indeg[m] == 0 {
			ready = append(ready, m)
		}
	}

	table := NewTable(cfg)
	scheduled := 0
	cycle := 1
	// Deadlock guard: every macro needs at most lat extra cycles, so this
	// bound is generous.
	limit := 2*totalLatency(macros) + 2*len(macros) + 16
	for scheduled < len(macros) {
		if cycle > limit {
			return nil, fmt.Errorf("sched: no progress by cycle %d (%d/%d macros)", cycle, scheduled, len(macros))
		}
		// Candidates ready at this cycle, highest priority first.
		cands := make([]int, 0, len(ready))
		for _, m := range ready {
			if earliest[m] <= cycle {
				cands = append(cands, m)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if sp[a] != sp[b] {
				return sp[a] > sp[b]
			}
			return macros[a].minNode < macros[b].minNode
		})
		for _, m := range cands {
			mc := &macros[m]
			if mc.isISE {
				if !table.FitsNewISE(cycle, mc.lat, mc.reads, mc.writes) {
					continue
				}
				table.ReserveNewISE(cycle, mc.lat, mc.reads, mc.writes)
			} else {
				if !table.FitsSW(cycle, isa.Class(mc.class), mc.reads, mc.writes) {
					continue
				}
				table.ReserveSW(cycle, isa.Class(mc.class), mc.reads, mc.writes)
			}
			issue[m] = cycle
			scheduled++
			ready = removeInt(ready, m)
			for _, s := range succs[m] {
				if done := cycle + mc.lat; done > earliest[s] {
					earliest[s] = done
				}
				indeg[s]--
				if indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
		}
		cycle++
	}

	out := &Schedule{
		NodeCycle: make([]int, d.Len()),
		NodeDone:  make([]int, d.Len()),
	}
	for m, mc := range macros {
		for _, v := range mc.nodes {
			out.NodeCycle[v] = issue[m]
			out.NodeDone[v] = issue[m] + mc.lat - 1
			if out.NodeDone[v] > out.Length {
				out.Length = out.NodeDone[v]
			}
		}
	}
	out.Critical = criticalNodes(d, macros, succs, preds)
	return out, nil
}

// buildMacros contracts ISE groups into single schedulable units and checks
// that each unit fits the machine's ports at all.
func buildMacros(d *dfg.DFG, a Assignment, cfg machine.Config) ([]macro, []int, error) {
	macroOf := make([]int, d.Len())
	for i := range macroOf {
		macroOf[i] = -1
	}
	var macros []macro
	for _, g := range a.Groups(d.Len()) {
		m := macro{
			id:      len(macros),
			nodes:   g.Nodes.Values(),
			lat:     GroupCycles(d, g.Nodes, a),
			reads:   d.In(g.Nodes),
			writes:  d.Out(g.Nodes),
			isISE:   true,
			minNode: g.Nodes.Values()[0],
		}
		if m.reads > cfg.ReadPorts || m.writes > cfg.WritePorts {
			return nil, nil, fmt.Errorf("sched: ISE group %d needs %d/%d ports, machine has %d/%d",
				g.ID, m.reads, m.writes, cfg.ReadPorts, cfg.WritePorts)
		}
		for _, v := range m.nodes {
			macroOf[v] = m.id
		}
		macros = append(macros, m)
	}
	for i := 0; i < d.Len(); i++ {
		if macroOf[i] >= 0 {
			continue
		}
		n := d.Nodes[i]
		m := macro{
			id:      len(macros),
			nodes:   []int{i},
			lat:     n.SW[a[i].Opt].Cycles,
			reads:   swReads(d, i),
			writes:  swWrites(d, i),
			class:   int(n.SW[a[i].Opt].Class),
			minNode: i,
		}
		if m.reads > cfg.ReadPorts || m.writes > cfg.WritePorts {
			return nil, nil, fmt.Errorf("sched: node %d needs %d/%d ports, machine has %d/%d",
				i, m.reads, m.writes, cfg.ReadPorts, cfg.WritePorts)
		}
		macroOf[i] = m.id
		macros = append(macros, m)
	}
	return macros, macroOf, nil
}

// macroEdges lifts DFG dependence edges onto macros, deduplicated.
func macroEdges(d *dfg.DFG, macros []macro, macroOf []int) (succs, preds [][]int) {
	succs = make([][]int, len(macros))
	preds = make([][]int, len(macros))
	seen := map[[2]int]bool{}
	for u := 0; u < d.G.Len(); u++ {
		for _, v := range d.G.Succs(u) {
			mu, mv := macroOf[u], macroOf[v]
			if mu == mv {
				continue
			}
			k := [2]int{mu, mv}
			if seen[k] {
				continue
			}
			seen[k] = true
			succs[mu] = append(succs[mu], mv)
			preds[mv] = append(preds[mv], mu)
		}
	}
	return succs, preds
}

// criticalNodes marks the DFG nodes whose macro lies on the latency-weighted
// longest dependence path. down[m] is the longest path ending at m
// (inclusive); up[m] the longest path starting at m; a macro is critical iff
// down+up-lat equals the overall critical length.
func criticalNodes(d *dfg.DFG, macros []macro, succs, preds [][]int) graph.NodeSet {
	n := len(macros)
	order := topoMacros(n, succs, preds)
	down := make([]int, n)
	up := make([]int, n)
	best := 0
	for _, m := range order {
		in := 0
		for _, p := range preds[m] {
			if down[p] > in {
				in = down[p]
			}
		}
		down[m] = in + macros[m].lat
		if down[m] > best {
			best = down[m]
		}
	}
	for i := n - 1; i >= 0; i-- {
		m := order[i]
		out := 0
		for _, s := range succs[m] {
			if up[s] > out {
				out = up[s]
			}
		}
		up[m] = out + macros[m].lat
	}
	crit := graph.NewNodeSet(d.Len())
	for m := range macros {
		if down[m]+up[m]-macros[m].lat == best {
			for _, v := range macros[m].nodes {
				crit.Add(v)
			}
		}
	}
	return crit
}

func topoMacros(n int, succs, preds [][]int) []int {
	indeg := make([]int, n)
	for m := 0; m < n; m++ {
		indeg[m] = len(preds[m])
	}
	var ready, order []int
	for m := 0; m < n; m++ {
		if indeg[m] == 0 {
			ready = append(ready, m)
		}
	}
	for len(ready) > 0 {
		m := ready[0]
		ready = ready[1:]
		order = append(order, m)
		for _, s := range succs[m] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}
