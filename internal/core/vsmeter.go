package core

import (
	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sched"
)

// VSMeter measures virtual subgraphs vSx and applies the merit update of
// Eq. 3 and Fig. 4.3.7 against them. Both explorers use it (DESIGN.md §13):
// each builds vSx its own way, Measure records the facts of one vSx, and
// every Merit call until the next Measure reads them. A location-aware
// explorer supplies what it knows about vSx through the case-4 fields, and
// case 1 itself. A VSMeter is explorer scratch: steady-state calls allocate
// nothing.
type VSMeter struct {
	// Case-4 inputs: the software cost vSx saves when packed, whether it
	// lies on the critical path, and its Max_AEC, read only when it does
	// not. A Measure that returns true sets the location-unaware values
	// (the size of vSx, on the critical path); MI then sets its unit-latency
	// depth, its critical-path test and its Max_AEC.
	SWCost     int
	OnCritical bool
	MaxAEC     int

	d         *dfg.DFG
	vs        graph.NodeSet
	chosen    []int // option per node; hardware index chosen - numSW
	numSW     []int
	size      int
	overPorts bool  // IN or OUT exceeds the machine's register ports
	nonConvex bool  // case 3 decides the update when either is set
	members   []int // arena: vs's members in topological order (case 4)
	// based counts the leading members whose depth entry still holds the
	// base sweep's depth.
	based int

	sorted    []int     // arena: Measure's member sort
	depth     []float64 // arena: longest-path depth per node
	baseDepth []float64 // arena: the base sweep's depth per node
	preDelay  []float64 // arena: the base sweep's running delay per position
	preArea   []float64 // arena: the base sweep's running area per position
	cycles    []int     // arena: per-option subgraph cycles
	areas     []float64 // arena: per-option subgraph areas
}

// presize sizes the meter's arenas for n nodes and maxRow options per node
// and unbinds the meter, so the next sweep sizes them for its DFG again.
func (m *VSMeter) presize(n, maxRow int) {
	m.d = nil
	m.sorted = grow(m.sorted, n)[:0]
	m.depth, m.baseDepth = grow(m.depth, n), grow(m.baseDepth, n)
	m.preDelay, m.preArea = grow(m.preDelay, n), grow(m.preArea, n)
	m.cycles, m.areas = grow(m.cycles, maxRow), grow(m.areas, maxRow)
}

// bind points the meter at d and sizes its arenas for d when d is not the
// DFG it last measured, so the sweeps themselves never check a size.
func (m *VSMeter) bind(d *dfg.DFG) {
	if m.d == d {
		return
	}
	widest := 0
	for _, node := range d.Nodes {
		widest = max(widest, len(node.HW))
	}
	m.presize(d.Len(), widest)
	m.d = d
}

// Measure records the facts of vSx = vs on cfg: its size, whether its IN or
// OUT exceeds the register ports, and whether it is convex. It reports
// whether vSx reaches case 4 (at least two members, no violation); only then
// does it sort the members into topological order, unless members already
// holds them, sweep them once at their chosen options (chosen[v] minus
// numSW[v], the first hardware option for a member that chose software) and
// set the case-4 inputs' location-unaware values. io is the caller's scratch
// for the port counts. The meter keeps vs, members, chosen and numSW until
// the next Measure.
func (m *VSMeter) Measure(d *dfg.DFG, cfg *machine.Config, vs graph.NodeSet, members, chosen, numSW []int, io *dfg.IOScratch) bool {
	m.size = vs.Len()
	m.overPorts, m.nonConvex = false, false
	if m.size == 1 {
		return false
	}
	m.overPorts = d.InScratch(vs, io) > cfg.ReadPorts || d.OutScratch(vs, io) > cfg.WritePorts
	m.nonConvex = !d.IsConvex(vs)
	if m.overPorts || m.nonConvex {
		return false
	}
	if members == nil {
		members = vs.AppendValues(m.sorted[:0])
		d.SortTopo(members)
		m.sorted = members
	}
	m.Delay(d, vs, members, chosen, numSW)
	m.SWCost, m.OnCritical = m.size, true
	return true
}

// Members returns the topologically ordered members of the vSx the last
// Measure found legal. The result aliases the meter's arena.
func (m *VSMeter) Members() []int {
	//lint:ignore arenaescape callers consume the member list before the next Measure
	return m.members
}

// Delay sweeps members, which must be in topological order, once with every
// member at its chosen option, and returns the subgraph's combinational
// delay: a member's depth reads its predecessors in vs. Measure runs the
// same sweep on a legal vSx; a later per-option sweep for member x shares
// everything before x with it, so the sweep keeps the depths and, per
// position, the running delay and area.
func (m *VSMeter) Delay(d *dfg.DFG, vs graph.NodeSet, members, chosen, numSW []int) float64 {
	m.bind(d)
	m.vs, m.members, m.chosen, m.numSW = vs, members, chosen, numSW
	depth := m.depth
	delayNS, areaUM2 := 0.0, 0.0
	for i, v := range members {
		m.preDelay[i], m.preArea[i] = delayNS, areaUM2
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		hw := m.chosenHW(v)
		depth[v] = in + hw.DelayNS
		m.baseDepth[v] = depth[v]
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += hw.AreaUM2
	}
	m.based = len(members)
	return delayNS
}

// chosenHW returns member v's hardware option under its choice: the first
// one when v chose software.
func (m *VSMeter) chosenHW(v int) *isa.HWOption {
	o := m.chosen[v] - m.numSW[v]
	if o < 0 {
		o = 0
	}
	return &m.d.Nodes[v].HW[o]
}

// metrics measures vSx assuming its k-th member x uses hardware option hwIdx
// and every other member keeps its choice. It resumes the base sweep at x's
// topological position: the same members are visited with the same float
// operations in the same order as a sweep over all of them, so the results
// are bit-identical to one (the reference tests of both explorers).
func (m *VSMeter) metrics(k, hwIdx int) (areaUM2 float64, cycles int) {
	d := m.d
	members := m.members
	x := members[k]
	// An earlier member's sweep overwrote the depths from its own position
	// on; put back the base depths of the members before x.
	depth := m.depth
	for i := m.based; i < k; i++ {
		depth[members[i]] = m.baseDepth[members[i]]
	}
	m.based = k
	delayNS, areaUM2 := m.preDelay[k], m.preArea[k]
	for _, v := range members[k:] {
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if m.vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		hw := m.chosenHW(v)
		if v == x {
			hw = &d.Nodes[v].HW[hwIdx]
		}
		depth[v] = in + hw.DelayNS
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += hw.AreaUM2
	}
	return areaUM2, sched.CyclesForDelay(delayNS)
}

// Merit updates operation x's merit row: the software part of Eq. 3, cases
// 2–4 of Fig. 4.3.7 against the last measured vSx when x has hardware
// options, then normalization. Case 1 is the caller's.
func (m *VSMeter) Merit(p *Params, d *dfg.DFG, row []float64, x int) {
	node := d.Nodes[x]
	// Software part: merit ×= ET(x, SW-i), the option's execution time.
	for i := range node.SW {
		row[i] *= float64(node.SW[i].Cycles)
	}
	if len(node.HW) > 0 {
		m.hwMerit(p, row[len(node.SW):], x)
	}
	// Normalization keeps operation-vs-operation selection fair and the
	// multiplicative dynamics bounded (§4.3 after step 8).
	aco.Normalize(row, 100*float64(len(row)))
}

// hwMerit applies cases 2–4 of Fig. 4.3.7 to merit, the hardware options of
// operation x.
func (m *VSMeter) hwMerit(p *Params, merit []float64, x int) {
	// Case 2: singleton subgraph cannot shorten anything.
	if m.size == 1 {
		for j := range merit {
			merit[j] *= p.BetaSize
		}
		return
	}

	// Case 3: constraint violations.
	if m.overPorts {
		for j := range merit {
			merit[j] *= p.BetaIO
		}
	}
	if m.nonConvex {
		for j := range merit {
			merit[j] *= p.BetaConvex
		}
	}
	if m.overPorts || m.nonConvex {
		return
	}

	// Case 4: performance and area shaping.
	k := 0
	for m.members[k] != x {
		k++
	}
	cyclesOf, areaOf := m.cycles, m.areas
	minCycles, maxArea := 1<<30, 0.0
	for j := range merit {
		area, cyc := m.metrics(k, j)
		cyclesOf[j], areaOf[j] = cyc, area
		if cyc < minCycles {
			minCycles = cyc
		}
		if area > maxArea {
			maxArea = area
		}
	}
	// The hardware usage check is against the fastest option on the
	// critical path and against Max_AEC off it.
	budget := m.MaxAEC
	if m.OnCritical {
		budget = minCycles
	}
	for j := range merit {
		mj := &merit[j]
		// Pipestage timing: options pushing the subgraph beyond the stage
		// budget are damped like any other constraint violation.
		if p.MaxISECycles > 0 && cyclesOf[j] > p.MaxISECycles {
			*mj *= p.BetaIO
			continue
		}
		// Performance improvement check: scale by the cycle saving the
		// subgraph achieves over its software cost.
		saving := m.SWCost - cyclesOf[j]
		switch {
		case saving > 0:
			*mj *= float64(1 + saving)
		case saving < 0:
			*mj /= float64(1 - saving)
		}
		// Hardware usage check.
		if cyclesOf[j] <= budget {
			if areaOf[j] > 0 {
				*mj *= maxArea / areaOf[j]
			}
		} else {
			*mj /= float64(1 + cyclesOf[j] - budget)
		}
	}
}
