package core

import "repro/internal/graph"

// trailUpdate applies Fig. 4.3.5 (aco.Tables.UpdateTrail) to every free
// node; an operation whose execution order moved earlier than in the
// previous iteration also pays ρ5 after a worsening iteration. prevOrder is
// empty on a round's first iteration, which has no previous order.
//
//alloc:free
func (e *explorer) trailUpdate(res *walkResult, improved bool, prevOrder []int) {
	for x := 0; x < e.d.Len(); x++ {
		if e.fixedGroupOf[x] < 0 {
			e.tab.UpdateTrail(x, res.chosen[x], improved, len(prevOrder) > 0 && res.orderPos[x] < prevOrder[x])
		}
	}
}

// labelComponents labels the connected components of the free nodes that
// chose a hardware option this iteration, over dependence edges in both
// directions: compOf maps each such node to its component, every other node
// to -1, and comps[c] holds component c's members. A component is the vSx
// of each of its members (Hardware-Grouping, §4.3): vSx is x grouped with
// every operation reachable from it through hardware-chosen operations.
func (e *explorer) labelComponents(res *walkResult) {
	d := e.d
	n := d.Len()
	e.compOf = grow(e.compOf, n)
	for i := range e.compOf {
		e.compOf[i] = -1
	}
	e.reserveComps(n)
	e.comps = e.comps[:0]
	stack := e.compStack[:0]
	for x := 0; x < n; x++ {
		if e.compOf[x] >= 0 || !e.choseHW(res, x) {
			continue
		}
		c := len(e.comps)
		e.comps = e.comps[:c+1]
		set := &e.comps[c]
		set.Reset(n)
		set.Add(x)
		e.compOf[x] = c
		stack = append(stack, x)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for dir := 0; dir < 2; dir++ {
				nbs := d.G.Succs(v)
				if dir == 1 {
					nbs = d.G.Preds(v)
				}
				for _, nb := range nbs {
					if e.compOf[nb] >= 0 || !e.choseHW(res, nb) {
						continue
					}
					e.compOf[nb] = c
					set.Add(nb)
					stack = append(stack, nb)
				}
			}
		}
	}
	e.compStack = stack
}

// reserveComps makes room for n component sets, keeping the warmed ones.
//
//alloc:amortized grows the component pool only while it warms up to the DFG size; later calls reuse it
func (e *explorer) reserveComps(n int) {
	if cap(e.comps) < n {
		e.comps = append(e.comps[:cap(e.comps)], make([]graph.NodeSet, n-cap(e.comps))...)
		obsExploreArenaGrows.Inc()
	}
}

// softwareVS returns vSx for a free node x that chose software: x with every
// hardware component adjacent to it, read from labelComponents' labels. The
// returned set is the explorer's arena and is valid until the next call.
func (e *explorer) softwareVS(x int) graph.NodeSet {
	d := e.d
	e.vsSet.Reset(d.Len())
	vs := &e.vsSet
	vs.Add(x)
	for dir := 0; dir < 2; dir++ {
		nbs := d.G.Succs(x)
		if dir == 1 {
			nbs = d.G.Preds(x)
		}
		for _, nb := range nbs {
			// A member of vs belongs to a component already added.
			if c := e.compOf[nb]; c >= 0 && !vs.Contains(nb) {
				vs.UnionWith(e.comps[c])
			}
		}
	}
	//lint:ignore arenaescape callers consume the subgraph before the next softwareVS call
	return e.vsSet
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
// operation's update writes only its own merit row, so the sweep labels the
// components once, measures each component once for all its members, and
// keeps only the per-option metrics of each member per operation.
// Software-chosen nodes build their own vSx from the labels.
//
//alloc:free
func (e *explorer) meritUpdate(res *walkResult) {
	d := e.d
	e.labelComponents(res)
	for c := range e.comps {
		vs := e.comps[c]
		e.measureVS(res, vs)
		e.compMembers = vs.AppendValues(e.compMembers[:0])
		for _, v := range e.compMembers {
			e.nodeMerit(res, v)
		}
	}
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 || e.compOf[x] >= 0 {
			continue
		}
		if len(d.Nodes[x].HW) > 0 {
			e.measureVS(res, e.softwareVS(x))
		}
		e.nodeMerit(res, x)
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
// the location-aware inputs: the software depth (the unit-latency chain), whether vs touches the
// critical path, and its Max_AEC when it does not.
func (e *explorer) measureVS(res *walkResult, vs graph.NodeSet) {
	m := &e.meter
	if !m.Measure(e.d, &e.cfg, vs, nil, res.chosen, e.tab.NumSW, &e.io) {
		return
	}
	m.SWCost = m.unitDepth()
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
