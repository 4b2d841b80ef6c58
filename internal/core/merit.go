package core

import (
	"repro/internal/aco"
	"repro/internal/graph"
	"repro/internal/sched"
)

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

// iterHW returns member v's delay and area under its iteration choice. A
// member that never chose hardware this iteration is only possible for the
// node vSx was built for, and takes its first hardware option.
func (e *explorer) iterHW(res *walkResult, v int) (delayNS, areaUM2 float64) {
	o := 0
	if e.choseHW(res, v) {
		o = res.chosen[v] - e.tab.NumSW[v]
	}
	hw := &e.d.Nodes[v].HW[o]
	return hw.DelayNS, hw.AreaUM2
}

// vsBase sweeps f's members once with every member at its iteration choice
// (iterHW). A member's depth reads only earlier members, so a vsMetrics sweep
// for member x shares everything before x with this one: the depths, kept in
// vsBaseDepth, and the running delay and area, kept per position in
// vsPreDelay and vsPreArea.
func (e *explorer) vsBase(res *walkResult, f *vsFacts) {
	d := e.d
	m := len(f.members)
	e.depthF = growFloats(e.depthF, d.Len())
	e.vsBaseDepth = growFloats(e.vsBaseDepth, d.Len())
	e.vsPreDelay = growFloats(e.vsPreDelay, m)
	e.vsPreArea = growFloats(e.vsPreArea, m)
	depth := e.depthF
	delayNS, areaUM2 := 0.0, 0.0
	for i, v := range f.members {
		e.vsPreDelay[i], e.vsPreArea[i] = delayNS, areaUM2
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if f.vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		dl, ar := e.iterHW(res, v)
		depth[v] = in + dl
		e.vsBaseDepth[v] = depth[v]
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += ar
	}
	f.based = m
}

// vsMetrics measures vSx assuming x uses hardware option hwIdx (index into
// the node's HW table) and every other member keeps its iteration choice. It
// resumes vsBase's sweep at x's topological position: the same members are
// visited with the same float operations in the same order as a sweep over
// all of them, so the results are bit-identical to one (vsMetricsReference
// in the tests).
func (e *explorer) vsMetrics(res *walkResult, f *vsFacts, x, hwIdx int) (delayNS, areaUM2 float64, cycles int) {
	d := e.d
	members := f.members
	k := 0
	for members[k] != x {
		k++
	}
	// An earlier member's sweep overwrote the depths from its own position
	// on; put back the base depths of the members before x.
	depth := e.depthF
	for i := f.based; i < k; i++ {
		depth[members[i]] = e.vsBaseDepth[members[i]]
	}
	f.based = k
	delayNS, areaUM2 = e.vsPreDelay[k], e.vsPreArea[k]
	for _, v := range members[k:] {
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if f.vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		var dl, ar float64
		if v == x {
			dl, ar = d.Nodes[v].HW[hwIdx].DelayNS, d.Nodes[v].HW[hwIdx].AreaUM2
		} else {
			dl, ar = e.iterHW(res, v)
		}
		depth[v] = in + dl
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += ar
	}
	return delayNS, areaUM2, sched.CyclesForDelay(delayNS)
}

// swDepth returns the longest dependence chain within vs at unit software
// latency — the serial cycle count the subgraph costs when not packed.
// members must hold vs's members in topological order.
func (e *explorer) swDepth(vs graph.NodeSet, members []int) int {
	d := e.d
	e.depthI = growInts(e.depthI, d.Len())
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
// such nodes one component at a time and measures the component's vsFacts
// once for all its members; only the per-option metrics of each member stay
// per operation. Software-chosen nodes build their own vSx.
//
//alloc:free
func (e *explorer) meritUpdate(res *walkResult) {
	d := e.d
	e.vsDone.Reset(d.Len())
	var f vsFacts
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 || e.vsDone.Contains(x) {
			continue
		}
		if !e.choseHW(res, x) {
			if len(d.Nodes[x].HW) > 0 {
				e.measureVS(res, e.virtualSubgraph(res, x), &f)
			}
			e.nodeMerit(res, x, &f)
			continue
		}
		vs := e.virtualSubgraph(res, x)
		e.measureVS(res, vs, &f)
		e.compMembers = vs.AppendValues(e.compMembers[:0])
		for _, v := range e.compMembers {
			e.vsDone.Add(v)
			e.nodeMerit(res, v, &f)
		}
	}
}

// choseHW reports whether free node x picked a hardware option this
// iteration.
func (e *explorer) choseHW(res *walkResult, x int) bool {
	return res.chosen[x] >= 0 && e.isHWOption(x, res.chosen[x])
}

// nodeMerit updates node x's merit row: the software part, the hardware part
// against vSx's facts f (when x has hardware options), then normalization.
func (e *explorer) nodeMerit(res *walkResult, x int, f *vsFacts) {
	node := e.d.Nodes[x]
	// Software part: merit ×= ET(x, SW-i), the option's execution time.
	merit := e.tab.Merit[x]
	for i := 0; i < e.tab.NumSW[x]; i++ {
		merit[i] *= float64(node.SW[i].Cycles)
	}
	if len(node.HW) > 0 {
		e.hwMerit(res, x, f)
	}
	// Normalization keeps operation-vs-operation selection fair and the
	// multiplicative dynamics bounded (§4.3 after step 8).
	aco.Normalize(merit, 100*float64(len(merit)))
}

// vsFacts are the properties of one virtual subgraph vSx that Fig. 4.3.7
// reads and that do not depend on which member x is being updated. They
// stop at the first case that decides the update: size 1 (case 2) or a
// constraint violation (case 3) leave the case-4 fields unset.
type vsFacts struct {
	vs        graph.NodeSet
	size      int
	overPorts bool // IN or OUT exceeds the machine's register ports
	nonConvex bool
	// Case 4 only.
	members    []int // vs's members in topological order
	swDepth    int
	onCritical bool // after the NoCriticalPath/NoMaxAEC ablations
	maxAEC     int  // set when !onCritical
	// based counts the leading members whose depthF entry still holds
	// vsBase's depth.
	based int
}

// measureVS fills f with vs's facts. f.vs and f.members alias the
// explorer's arenas, valid until the next virtualSubgraph or
// membersInTopoOrder call.
func (e *explorer) measureVS(res *walkResult, vs graph.NodeSet, f *vsFacts) {
	d := e.d
	p := &e.p
	*f = vsFacts{vs: vs, size: vs.Len()}
	if f.size == 1 {
		return
	}
	f.overPorts = d.InScratch(vs, &e.io) > e.cfg.ReadPorts || d.OutScratch(vs, &e.io) > e.cfg.WritePorts
	f.nonConvex = !d.IsConvex(vs)
	if f.overPorts || f.nonConvex {
		return
	}
	// One topological member sweep serves the software depth and every
	// per-option metric pass.
	f.members = e.membersInTopoOrder(vs)
	f.swDepth = e.swDepth(vs, f.members)
	for _, v := range f.members {
		if res.critical.Contains(v) {
			f.onCritical = true
			break
		}
	}
	if p.NoCriticalPath {
		f.onCritical = false
	}
	if p.NoMaxAEC {
		f.onCritical = true
	}
	if !f.onCritical {
		f.maxAEC = e.mobility(res, vs)
	}
	e.vsBase(res, f)
}

// hwMerit applies the four cases of Fig. 4.3.7 to every hardware option of
// operation x, whose virtual subgraph vSx has the facts f.
func (e *explorer) hwMerit(res *walkResult, x int, f *vsFacts) {
	d := e.d
	p := &e.p
	hw := d.Nodes[x].HW
	merit := e.tab.Merit[x][e.tab.NumSW[x]:]

	// Case 1: critical-path boost.
	if res.critical.Contains(x) && !p.NoCriticalPath {
		for j := range hw {
			merit[j] /= p.BetaCP
		}
	}

	// Case 2: singleton subgraph cannot shorten anything.
	if f.size == 1 {
		for j := range hw {
			merit[j] *= p.BetaSize
		}
		return
	}

	// Case 3: constraint violations.
	if f.overPorts {
		for j := range hw {
			merit[j] *= p.BetaIO
		}
	}
	if f.nonConvex {
		for j := range hw {
			merit[j] *= p.BetaConvex
		}
	}
	if f.overPorts || f.nonConvex {
		return
	}

	// Case 4: performance and area shaping.
	e.hwCycles = growInts(e.hwCycles, len(hw))
	e.hwAreas = growFloats(e.hwAreas, len(hw))
	cyclesOf, areaOf := e.hwCycles, e.hwAreas
	minCycles, maxArea := 1<<30, 0.0
	for j := range hw {
		_, area, cyc := e.vsMetrics(res, f, x, j)
		cyclesOf[j], areaOf[j] = cyc, area
		if cyc < minCycles {
			minCycles = cyc
		}
		if area > maxArea {
			maxArea = area
		}
	}
	for j := range hw {
		m := &merit[j]
		// Pipestage timing: options pushing the subgraph beyond the stage
		// budget are damped like any other constraint violation.
		if p.MaxISECycles > 0 && cyclesOf[j] > p.MaxISECycles {
			*m *= p.BetaIO
			continue
		}
		// Performance improvement check: scale by the cycle saving the
		// subgraph achieves over its software chain.
		saving := f.swDepth - cyclesOf[j]
		switch {
		case saving > 0:
			*m *= float64(1 + saving)
		case saving < 0:
			*m /= float64(1 - saving)
		}
		// Hardware usage check.
		if f.onCritical {
			if cyclesOf[j] == minCycles {
				if areaOf[j] > 0 {
					*m *= maxArea / areaOf[j]
				}
			} else {
				*m /= float64(1 + cyclesOf[j] - minCycles)
			}
		} else {
			if cyclesOf[j] <= f.maxAEC {
				if areaOf[j] > 0 {
					*m *= maxArea / areaOf[j]
				}
			} else {
				*m /= float64(1 + cyclesOf[j] - f.maxAEC)
			}
		}
	}
}
