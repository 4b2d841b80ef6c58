package core

import (
	"repro/internal/graph"
	"repro/internal/sched"
)

// trailUpdate applies Fig. 4.3.5: after an iteration whose execution time
// TETnew improved on (or matched) TETold, selected options gain ρ1 and
// unselected options lose ρ2; after a worsening iteration selected options
// lose ρ3, unselected options regain ρ4, and every option of an operation
// whose execution order moved earlier additionally loses ρ5. Trails are
// clamped at zero (pheromone cannot go negative).
//
//alloc:free
func (e *explorer) trailUpdate(res *walkResult, improved bool, prevOrder []int) {
	for x := 0; x < e.d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 {
			continue
		}
		movedEarlier := prevOrder != nil && res.orderPos[x] < prevOrder[x]
		for o := range e.trail[x] {
			sel := res.chosen[x] == o
			switch {
			case improved && sel:
				e.trail[x][o] += e.p.Rho1
			case improved:
				e.trail[x][o] -= e.p.Rho2
			case sel:
				e.trail[x][o] -= e.p.Rho3
			default:
				e.trail[x][o] += e.p.Rho4
			}
			if !improved && movedEarlier {
				e.trail[x][o] -= e.p.Rho5
			}
			if e.trail[x][o] < 0 {
				e.trail[x][o] = 0
			}
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
				if vs.Contains(nb) || e.fixedGroupOf[nb] >= 0 ||
					res.chosen[nb] < 0 || !e.isHWOption(nb, res.chosen[nb]) {
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
		case res.chosen[v] >= 0 && e.isHWOption(v, res.chosen[v]):
			o := res.chosen[v] - e.numSW[v]
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
	order := e.topoOrder()
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
//alloc:free
func (e *explorer) meritUpdate(res *walkResult) {
	d := e.d
	e.refreshMobility()
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 {
			continue
		}
		node := d.Nodes[x]
		// Software part: merit ×= ET(x, SW-i), the option's execution time.
		for i := 0; i < e.numSW[x]; i++ {
			e.merit[x][i] *= float64(node.SW[i].Cycles)
		}
		if len(node.HW) > 0 {
			e.hwMerit(res, x)
		}
		// Normalization keeps operation-vs-operation selection fair and the
		// multiplicative dynamics bounded (§4.3 after step 8).
		normalize(e.merit[x], 100*float64(len(e.merit[x])))
	}
}

// hwMerit applies the four cases of Fig. 4.3.7 to every hardware option of
// operation x.
func (e *explorer) hwMerit(res *walkResult, x int) {
	d := e.d
	p := e.p
	hw := d.Nodes[x].HW
	base := e.numSW[x]

	// Case 1: critical-path boost.
	if res.critical.Contains(x) && !p.NoCriticalPath {
		for j := range hw {
			e.merit[x][base+j] /= p.BetaCP
		}
	}

	vs := e.virtualSubgraph(res, x)

	// Case 2: singleton subgraph cannot shorten anything.
	if vs.Len() == 1 {
		for j := range hw {
			e.merit[x][base+j] *= p.BetaSize
		}
		return
	}

	// Case 3: constraint violations.
	violated := false
	if e.d.InScratch(vs, &e.io) > e.cfg.ReadPorts || e.d.OutScratch(vs, &e.io) > e.cfg.WritePorts {
		for j := range hw {
			e.merit[x][base+j] *= p.BetaIO
		}
		violated = true
	}
	if !d.G.IsConvexScratch(vs, &e.convex) {
		for j := range hw {
			e.merit[x][base+j] *= p.BetaConvex
		}
		violated = true
	}
	if violated {
		return
	}

	// Case 4: performance and area shaping. One topological member sweep
	// serves the software-depth and every per-option metric pass.
	members := e.membersInTopoOrder(vs)
	swDepth := e.swDepth(vs, members)
	e.hwCycles = growInts(e.hwCycles, len(hw))
	e.hwAreas = growFloats(e.hwAreas, len(hw))
	cyclesOf, areaOf := e.hwCycles, e.hwAreas
	minCycles, maxArea := 1<<30, 0.0
	for j := range hw {
		_, area, cyc := e.vsMetrics(res, vs, members, x, j)
		cyclesOf[j], areaOf[j] = cyc, area
		if cyc < minCycles {
			minCycles = cyc
		}
		if area > maxArea {
			maxArea = area
		}
	}
	onCritical := false
	for _, v := range members {
		if res.critical.Contains(v) {
			onCritical = true
			break
		}
	}
	if p.NoCriticalPath {
		onCritical = false
	}
	if p.NoMaxAEC {
		onCritical = true
	}
	maxAEC := 0
	if !onCritical {
		maxAEC = e.mobility(res, vs)
	}
	for j := range hw {
		m := &e.merit[x][base+j]
		// Pipestage timing: options pushing the subgraph beyond the stage
		// budget are damped like any other constraint violation.
		if p.MaxISECycles > 0 && cyclesOf[j] > p.MaxISECycles {
			*m *= p.BetaIO
			continue
		}
		// Performance improvement check: scale by the cycle saving the
		// subgraph achieves over its software chain.
		saving := swDepth - cyclesOf[j]
		switch {
		case saving > 0:
			*m *= float64(1 + saving)
		case saving < 0:
			*m /= float64(1 - saving)
		}
		// Hardware usage check.
		if onCritical {
			if cyclesOf[j] == minCycles {
				if areaOf[j] > 0 {
					*m *= maxArea / areaOf[j]
				}
			} else {
				*m /= float64(1 + cyclesOf[j] - minCycles)
			}
		} else {
			if cyclesOf[j] <= maxAEC {
				if areaOf[j] > 0 {
					*m *= maxArea / areaOf[j]
				}
			} else {
				*m /= float64(1 + cyclesOf[j] - maxAEC)
			}
		}
	}
}
