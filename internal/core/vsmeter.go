package core

import (
	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
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
	size      int
	overPorts bool  // IN or OUT exceeds the machine's register ports
	nonConvex bool  // case 3 decides the update when either is set
	members   []int // vs's members in topological order (case 4)
	// based counts the leading positions whose depth entry still holds the
	// base sweep's depth.
	based  int
	sorted []int // arena: Measure's member sort

	// Delay's compact form of the vSx, indexed by position in members: the
	// chosen option's delay and area, and each position's in-vSx
	// predecessor positions as a CSR in G.Preds order. The per-option
	// sweeps read only these.
	pos       []int     // arena: node -> position in members (members only)
	delay     []float64 // arena: chosen option's delay per position
	area      []float64 // arena: chosen option's area per position
	predStart []int     // arena: CSR offsets into predPos, one per position plus one
	predPos   []int     // arena: in-vSx predecessor positions
	depth     []float64 // arena: longest-path depth per position
	baseDepth []float64 // arena: the base sweep's depth per position
	steps     []int     // arena: unitDepth's chain length per position
	preDelay  []float64 // arena: the base sweep's running delay per position
	preArea   []float64 // arena: the base sweep's running area per position
	cycles    []int     // arena: per-option subgraph cycles
	areas     []float64 // arena: per-option subgraph areas
	// The base sweep's result: the subgraph's area and cycles with every
	// member at its chosen option.
	baseArea   float64
	baseCycles int
}

// presize sizes the meter's arenas for n nodes, edges dependence edges and
// maxRow options per node and unbinds the meter, so the next sweep sizes
// them for its DFG again.
func (m *VSMeter) presize(n, edges, maxRow int) {
	m.d = nil
	m.sorted = grow(m.sorted, n)[:0]
	m.pos = grow(m.pos, n)
	m.delay, m.area = grow(m.delay, n), grow(m.area, n)
	m.predStart, m.predPos = grow(m.predStart, n+1), grow(m.predPos, edges)[:0]
	m.depth, m.baseDepth = grow(m.depth, n), grow(m.baseDepth, n)
	m.steps = grow(m.steps, n)
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
	m.presize(d.Len(), d.G.NumEdges(), widest)
	m.d = d
}

// Measure records the facts of vSx = vs on cfg: its size, whether its IN or
// OUT exceeds the register ports, and whether it is convex. It reports
// whether vSx reaches case 4 (at least two members, no violation); only then
// does it sort the members into topological order, unless members already
// holds them, sweep them once at their chosen options (Delay) and set the
// case-4 inputs' location-unaware values. io is the caller's scratch for the
// port counts. The meter keeps members until the next Measure.
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
// member at its chosen option (chosen[v] minus numSW[v], the first hardware
// option for a member that chose software), and returns the subgraph's
// combinational delay: a member's depth reads its predecessors in vs.
// Measure runs the same sweep on a legal vSx. The sweep also records the
// vSx in compact form for the per-option sweeps: each position's chosen
// delay and area and in-vSx predecessor positions, and per position the
// depth, running delay and running area a later sweep from there resumes.
func (m *VSMeter) Delay(d *dfg.DFG, vs graph.NodeSet, members, chosen, numSW []int) float64 {
	m.bind(d)
	m.members = members
	depth, preds := m.depth, m.predPos[:0]
	delayNS, areaUM2 := 0.0, 0.0
	for i, v := range members {
		m.pos[v] = i
		m.preDelay[i], m.preArea[i] = delayNS, areaUM2
		m.predStart[i] = len(preds)
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if !vs.Contains(p) {
				continue
			}
			j := m.pos[p] // p precedes v in members
			preds = append(preds, j)
			if depth[j] > in {
				in = depth[j]
			}
		}
		o := chosen[v] - numSW[v]
		if o < 0 {
			o = 0
		}
		hw := &d.Nodes[v].HW[o]
		m.delay[i], m.area[i] = hw.DelayNS, hw.AreaUM2
		depth[i] = in + hw.DelayNS
		if depth[i] > delayNS {
			delayNS = depth[i]
		}
		areaUM2 += hw.AreaUM2
	}
	m.predStart[len(members)] = len(preds)
	m.predPos = preds
	copy(m.baseDepth, depth[:len(members)])
	m.based = len(members)
	m.baseArea, m.baseCycles = areaUM2, sched.CyclesForDelay(delayNS)
	return delayNS
}

// unitDepth returns the longest dependence chain within the vSx the last
// Delay swept, at one cycle per member: the serial cycle count the subgraph
// costs when not packed.
func (m *VSMeter) unitDepth() int {
	best := 0
	for i := range m.members {
		in := 0
		for _, j := range m.predPos[m.predStart[i]:m.predStart[i+1]] {
			in = max(in, m.steps[j])
		}
		m.steps[i] = in + 1
		best = max(best, m.steps[i])
	}
	return best
}

// metrics measures vSx assuming its k-th member uses hardware option hwIdx
// and every other member keeps its choice. It resumes the base sweep at
// position k over the compact vSx: the same members are visited with the
// same float operations in the same order as a sweep over all of them, so
// the results are bit-identical to one (the reference tests of both
// explorers). An option with the delay and area the base sweep gave
// position k (usually the option the member holds) would redo the base
// sweep's operations on the same values, so it returns the base sweep's
// result unswept.
func (m *VSMeter) metrics(k, hwIdx int) (areaUM2 float64, cycles int) {
	hw := &m.d.Nodes[m.members[k]].HW[hwIdx]
	if hw.DelayNS == m.delay[k] && hw.AreaUM2 == m.area[k] {
		return m.baseArea, m.baseCycles
	}
	// An earlier sweep overwrote the depths from its own position on; put
	// back the base depths of the positions before k.
	depth := m.depth
	if k > m.based {
		copy(depth[m.based:k], m.baseDepth[m.based:k])
	}
	m.based = k
	delayNS, areaUM2 := m.preDelay[k], m.preArea[k]
	for i := k; i < len(m.members); i++ {
		dl, ar := m.delay[i], m.area[i]
		if i == k {
			dl, ar = hw.DelayNS, hw.AreaUM2
		}
		in := 0.0
		for _, j := range m.predPos[m.predStart[i]:m.predStart[i+1]] {
			if depth[j] > in {
				in = depth[j]
			}
		}
		depth[i] = in + dl
		if depth[i] > delayNS {
			delayNS = depth[i]
		}
		areaUM2 += ar
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
	k := m.pos[x]
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
