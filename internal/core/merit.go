package core

import "repro/internal/graph"

// trailUpdate applies Fig. 4.3.5 (aco.Tables.UpdateTrail) to every free
// node; an operation whose execution order moved earlier than in the
// previous iteration also pays ρ5 after a worsening iteration.
//
//alloc:free
func (e *explorer) trailUpdate(res *walkResult, improved bool, prevOrder []int) {
	for x := 0; x < e.d.Len(); x++ {
		if e.fixedGroupOf[x] < 0 {
			e.tab.UpdateTrail(x, res.chosen[x], improved, prevOrder != nil && res.orderPos[x] < prevOrder[x])
		}
	}
}

// virtualSubgraph returns vSx: operation x grouped with every reachable
// operation that chose a hardware implementation option in this iteration
// (Hardware-Grouping, §4.3). Reachability walks dependence edges in both
// directions but only through hardware-chosen nodes. The returned set is the
// explorer's arena and is valid until the next call.
func (e *explorer) virtualSubgraph(res *walkResult, x int) graph.NodeSet {
	d := e.d
	e.vsSet.Reset(d.Len())
	vs := &e.vsSet
	vs.Add(x)
	stack := append(e.vsStack[:0], x)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dir := 0; dir < 2; dir++ {
			nbs := d.G.Succs(v)
			if dir == 1 {
				nbs = d.G.Preds(v)
			}
			for _, nb := range nbs {
				if vs.Contains(nb) || e.fixedGroupOf[nb] >= 0 || !e.choseHW(res, nb) {
					continue
				}
				vs.Add(nb)
				stack = append(stack, nb)
			}
		}
	}
	e.vsStack = stack
	//lint:ignore arenaescape callers consume the subgraph before the next virtualSubgraph call
	return e.vsSet
}

// swDepth returns the longest dependence chain within vs at unit software
// latency — the serial cycle count the subgraph costs when not packed.
// members must hold vs's members in topological order.
func (e *explorer) swDepth(vs graph.NodeSet, members []int) int {
	d := e.d
	depth := e.depthI
	best := 0
	for _, v := range members {
		in := 0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		depth[v] = in + 1
		if depth[v] > best {
			best = depth[v]
		}
	}
	return best
}

// mobility returns the ASAP/ALAP slack window (in cycles, ≥1) of the first
// operation of vs against the iteration's schedule length — the paper's
// maximal allowable execution cycle Max_AEC (Fig. 4.3.8): a non-critical
// subgraph may take up to this many cycles without hurting the makespan.
func (e *explorer) mobility(res *walkResult, vs graph.NodeSet) int {
	// First operation: the member with the smallest ASAP.
	members := vs.AppendValues(e.mobMembers[:0])
	e.mobMembers = members
	first, bestASAP := -1, 1<<30
	for _, v := range members {
		if e.asap[v] < bestASAP {
			bestASAP, first = e.asap[v], v
		}
	}
	if first < 0 {
		return 1
	}
	alap := res.tet - e.tail[first] + 1
	aec := alap - e.asap[first] + 1
	if aec < 1 {
		aec = 1
	}
	return aec
}

// meritUpdate implements the merit function (Eq. 3 software part and
// Fig. 4.3.7 hardware part) followed by per-operation normalization.
//
// Every free node that chose hardware this iteration has the same vSx as
// the rest of its hardware-chosen component: the component itself. Each
// operation's update writes only its own merit row, so the sweep visits
// such nodes one component at a time and measures the component once for
// all its members; only the per-option metrics of each member stay per
// operation. Software-chosen nodes build their own vSx.
//
//alloc:free
func (e *explorer) meritUpdate(res *walkResult) {
	d := e.d
	e.vsDone.Reset(d.Len())
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 || e.vsDone.Contains(x) {
			continue
		}
		if !e.choseHW(res, x) {
			if len(d.Nodes[x].HW) > 0 {
				e.measureVS(res, e.virtualSubgraph(res, x))
			}
			e.nodeMerit(res, x)
			continue
		}
		vs := e.virtualSubgraph(res, x)
		e.measureVS(res, vs)
		e.compMembers = vs.AppendValues(e.compMembers[:0])
		for _, v := range e.compMembers {
			e.vsDone.Add(v)
			e.nodeMerit(res, v)
		}
	}
}

// choseHW reports whether free node x picked a hardware option this
// iteration.
func (e *explorer) choseHW(res *walkResult, x int) bool {
	return res.chosen[x] >= 0 && e.isHWOption(x, res.chosen[x])
}

// nodeMerit updates node x's merit row: case 1 of Fig. 4.3.7, the
// critical-path boost, then the shared software part, cases 2–4 against the
// meter's vSx and normalization.
func (e *explorer) nodeMerit(res *walkResult, x int) {
	if res.critical.Contains(x) && !e.p.NoCriticalPath {
		hw := e.tab.Merit[x][e.tab.NumSW[x]:]
		for j := range hw {
			hw[j] /= e.p.BetaCP
		}
	}
	e.meter.Merit(&e.p, e.d, e.tab.Merit[x], x)
}

// measureVS measures vs in the meter and, when it reaches case 4, supplies
// the location-aware inputs: the software depth, whether vs touches the
// critical path, and its Max_AEC when it does not.
func (e *explorer) measureVS(res *walkResult, vs graph.NodeSet) {
	m := &e.meter
	if !m.Measure(e.d, &e.cfg, vs, nil, res.chosen, e.tab.NumSW, &e.io) {
		return
	}
	m.SWCost = e.swDepth(vs, m.Members())
	m.OnCritical = e.p.NoMaxAEC
	if !m.OnCritical && !e.p.NoCriticalPath {
		for _, v := range m.Members() {
			if res.critical.Contains(v) {
				m.OnCritical = true
				break
			}
		}
	}
	if !m.OnCritical {
		m.MaxAEC = e.mobility(res, vs)
	}
}
