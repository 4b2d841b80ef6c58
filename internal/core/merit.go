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

// vsMetrics measures vSx assuming x uses hardware option hwIdx (index into
// the node's HW table) and every other member keeps its iteration choice.
// members must hold vs's members in topological order (membersInTopoOrder).
func (e *explorer) vsMetrics(res *walkResult, vs graph.NodeSet, members []int, x, hwIdx int) (delayNS, areaUM2 float64, cycles int) {
	d := e.d
	e.depthF = growFloats(e.depthF, d.Len())
	depth := e.depthF
	for _, v := range members {
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		// The member's delay and area under the assumed choices: x takes
		// option hwIdx, everyone else their iteration choice (a member that
		// never chose hardware this iteration is only possible for x itself,
		// so the first-option fallback mirrors the historical behavior).
		var dl, ar float64
		switch {
		case v == x:
			dl, ar = d.Nodes[v].HW[hwIdx].DelayNS, d.Nodes[v].HW[hwIdx].AreaUM2
		case e.choseHW(res, v):
			o := res.chosen[v] - e.tab.NumSW[v]
			dl, ar = d.Nodes[v].HW[o].DelayNS, d.Nodes[v].HW[o].AreaUM2
		default:
			dl, ar = d.Nodes[v].HW[0].DelayNS, d.Nodes[v].HW[0].AreaUM2
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

// refreshMobility recomputes the unit-latency ASAP and tail arrays shared by
// every mobility query of one iteration.
func (e *explorer) refreshMobility() {
	d := e.d
	n := d.Len()
	e.asap = growInts(e.asap, n)
	e.tail = growInts(e.tail, n)
	order := d.Topo()
	for _, v := range order {
		in := 0
		for _, p := range d.G.Preds(v) {
			if e.asap[p] > in {
				in = e.asap[p]
			}
		}
		e.asap[v] = in + 1
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		out := 0
		for _, s := range d.G.Succs(v) {
			if e.tail[s] > out {
				out = e.tail[s]
			}
		}
		e.tail[v] = out + 1
	}
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
	e.refreshMobility()
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
}

// measureVS fills f with vs's facts. f.vs and f.members alias the
// explorer's arenas, valid until the next virtualSubgraph or
// membersInTopoOrder call.
func (e *explorer) measureVS(res *walkResult, vs graph.NodeSet, f *vsFacts) {
	d := e.d
	p := e.p
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
}

// hwMerit applies the four cases of Fig. 4.3.7 to every hardware option of
// operation x, whose virtual subgraph vSx has the facts f.
func (e *explorer) hwMerit(res *walkResult, x int, f *vsFacts) {
	d := e.d
	p := e.p
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
		_, area, cyc := e.vsMetrics(res, f.vs, f.members, x, j)
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
