package core

import (
	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/prog"
	"repro/internal/sched"
)

// explorer is the MI explorer's step (Chapter 4): it carries the per-DFG
// exploration state across rounds and iterations. One explorer is owned by
// one exploration worker and reused across the restarts that worker runs
// (the driver's reset and bind put it back to a fresh restart's state): all
// the `arena:` annotated fields below are scratch recycled every iteration,
// so steady-state ant construction and merit sweeps allocate nothing
// (DESIGN.md §13, TestExploreSteadyStateAllocs). Reuse is pure scratch —
// which worker runs which restart never affects the restart's result.
type explorer struct {
	runState
	sp []float64 // scheduling priority per node (child count)

	// Per-DFG invariants, computed once per restart by initDFG: the
	// unit-latency longest paths into (asap) and out of (tail) each node,
	// which every mobility query reads, and each node's port use as a
	// single-operation ISE, which every new walk group starts from.
	asap []int     // arena: rebuilt by bind
	tail []int     // arena: rebuilt by bind
	solo []portUse // arena: rebuilt by bind

	// Unit contraction of the accepted ISEs, rebuilt whenever the fixed set
	// changes (once per round): unit u's members are
	// unitMembers[unitStart[u]:unitStart[u+1]], unitOf maps node->unit, and
	// unitSuccs CSR-lists each unit's deduplicated successor units in the
	// exact first-encounter order walk's retire loop visits them, so the
	// ready list grows in the same order the per-walk edge consumption used
	// to produce. unitIndeg0 holds the initial unit indegrees.
	unitFixedN    int   // len(fixed) the unit arena was built for; -1 forces a rebuild
	unitStart     []int // arena: rebuilt when the fixed set changes
	unitMembers   []int // arena: flat unit-member storage
	unitOf        []int // arena: node -> unit
	unitSuccStart []int // arena: CSR offsets into unitSuccs
	unitSuccs     []int // arena: dedup'd successor units, retire order
	unitIndeg0    []int // arena: initial indegree per unit
	unitMark      []int // arena: era-stamped dedup marks, one per unit
	unitEra       int

	// Per-walk scheduling scratch. arena: reused every iteration.
	wres       walkResult   // arena: the iteration result walk returns
	table      *sched.Table // reusable reservation table
	indeg      []int        // arena: per-unit remaining dependence count
	doneCycle  []int        // arena: completion cycle per node, 0 = unscheduled
	issueCycle []int        // arena: issue cycle per node
	issued     []bool       // arena: per-unit issued flag
	groupNext  []int        // arena: next member of the node's walk group, -1 after the last
	entUnit    []int        // arena: Ready-Matrix entry units (the ready list)
	entOpt     []int        // arena: Ready-Matrix entry options
	entW       []float64    // arena: Ready-Matrix entry weights

	// criticalNodes scratch: the final contraction (iteration groups, fixed
	// ISEs, software singles), the nodes in issue-cycle order and the
	// longest-path sweeps. arena: reused every iteration.
	cFinalOf    []int // arena: node -> final unit
	cLats       []int // arena: latency per final unit
	cCycleStart []int // arena: counting-sort offsets past 254 cycles
	cOrder      []int // arena: nodes in issue-cycle order
	cDown       []int // arena: downward longest path
	cUp         []int // arena: upward longest path

	// Merit-sweep scratch. arena: reused every merit update.
	meter       VSMeter         // measures each vSx and applies its merit cases
	compOf      []int           // arena: node -> hardware component, -1 for every other node
	comps       []graph.NodeSet // arena: pooled component member sets, one per component
	compStack   []int           // arena: labelComponents' DFS stack
	compMembers []int           // arena: the swept component's members
	vsSet       graph.NodeSet   // arena: softwareVS's result set
	mobMembers  []int           // arena: mobility's member extraction buffer
}

func (e *explorer) state() *runState { return &e.runState }

// bind reinitializes the MI restart-scoped state after the driver's reset:
// priorities, the per-DFG invariants and the unit contraction. Per-iteration
// scratch needs none — each use fully overwrites it.
func (e *explorer) bind() {
	e.sp = grow(e.sp, e.d.Len())
	e.unitFixedN = -1
	e.initPriority()
	e.initDFG()
}

// construct is MI's step: one ant walk (Figs. 4.3.3/4.3.4).
//
//alloc:free
func (e *explorer) construct() int { return e.walk().tet }

// update applies Fig. 4.3.5 and Fig. 4.3.7 to the last walk and keeps its
// scheduling order for the next iteration's ρ5 test. The walk's orderPos is
// its arena, so it is copied into the round-local buffer (nil only before
// the first iteration — the trailUpdate moved-earlier gate keys on that).
//
//alloc:free
func (e *explorer) update(improved bool) {
	e.trailUpdate(&e.wres, improved, e.cs.prevOrder)
	e.meritUpdate(&e.wres)
	e.cs.prevOrder = append(e.cs.prevOrder[:0], e.wres.orderPos...)
}

// initDFG computes the per-DFG invariants the iterations read: the
// unit-latency ASAP and tail of every node (mobility) and every node's port
// use on its own (a fresh single-operation walk group).
func (e *explorer) initDFG() {
	d := e.d
	n := d.Len()
	e.asap = grow(e.asap, n)
	e.tail = grow(e.tail, n)
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
	e.solo = grow(e.solo, n)
	var empty walkGroup
	for v := 0; v < n; v++ {
		e.solo[v] = e.packIO(&empty, v)
	}
}

// walkGroup is an ISE instruction formed during one iteration's ant walk.
// Groups live as values in walkResult.groups; their member sets are pooled
// across iterations (appendGroup resets a truncated slot's bitmap in place).
// The members are also chained through explorer.groupNext from first, so a
// sweep over them reads no bitmap.
type walkGroup struct {
	index int // position in walkResult.groups, set at creation
	nodes graph.NodeSet
	first int // latest member added, head of the groupNext chain
	cycle int // issue cycle
	lat   int
	portUse
	delayNS float64
}

// portUse is a walk group's register-port use: its IN and OUT, and the
// live-in registers its members read.
type portUse struct {
	reads, writes int
	liveIn        prog.RegSet
}

// walkResult captures one iteration's constructed schedule. It is the
// explorer's per-iteration arena: walk returns the same instance every call,
// and each caller consumes it before the next walk.
type walkResult struct {
	tet      int
	chosen   []int // option index per node (-1 for fixed members / none)
	orderPos []int // scheduling position of each node's unit
	groupOf  []int // iteration group per node, -1 if software/fixed
	groups   []walkGroup
	critical graph.NodeSet
	depthNS  []float64 // combinational depth of each HW node within its group
}

// hwDelay returns the delay of hardware option o (global index) of node x.
func (e *explorer) hwDelay(x, o int) float64 {
	return e.d.Nodes[x].HW[o-e.tab.NumSW[x]].DelayNS
}

// ensureUnits (re)builds the contraction of the DFG into schedulable units —
// each fixed ISE one unit, every other node its own — plus the per-unit
// successor CSR walk's retire loop consumes. Units only change when an ISE
// is accepted, so this runs once per round, not per iteration.
func (e *explorer) ensureUnits() {
	d := e.d
	n := d.Len()
	if e.unitFixedN == len(e.fixed) && len(e.unitStart) > 0 && len(e.unitOf) == n {
		return
	}
	e.unitFixedN = len(e.fixed)
	e.unitOf = grow(e.unitOf, n)
	for i := range e.unitOf {
		e.unitOf[i] = -1
	}
	starts := e.unitStart[:0]
	mem := e.unitMembers[:0]
	nu := 0
	for _, f := range e.fixed {
		starts = append(starts, len(mem))
		mem = f.Nodes.AppendValues(mem)
		for _, v := range mem[starts[nu]:] {
			e.unitOf[v] = nu
		}
		nu++
	}
	for i := 0; i < n; i++ {
		if e.unitOf[i] < 0 {
			e.unitOf[i] = nu
			starts = append(starts, len(mem))
			mem = append(mem, i)
			nu++
		}
	}
	starts = append(starts, len(mem))
	e.unitStart, e.unitMembers = starts, mem

	// Dedup'd successor units per unit, in the first-encounter order of the
	// retire loop (members in unit order, node successors in edge order):
	// consuming this list once per retired unit reproduces the edge-set
	// bookkeeping the per-walk map used to do, with identical ready-list
	// growth order — the order the deterministic random stream depends on.
	e.unitMark = grow(e.unitMark, nu)
	e.unitIndeg0 = grow(e.unitIndeg0, nu)
	for u := 0; u < nu; u++ {
		e.unitIndeg0[u] = 0
	}
	sstart := e.unitSuccStart[:0]
	succs := e.unitSuccs[:0]
	for u := 0; u < nu; u++ {
		sstart = append(sstart, len(succs))
		e.unitEra++
		era := e.unitEra
		for _, x := range mem[starts[u]:starts[u+1]] {
			for _, v := range d.G.Succs(x) {
				b := e.unitOf[v]
				if b == u || e.unitMark[b] == era {
					continue
				}
				e.unitMark[b] = era
				succs = append(succs, b)
				e.unitIndeg0[b]++
			}
		}
	}
	sstart = append(sstart, len(succs))
	e.unitSuccStart, e.unitSuccs = sstart, succs
}

// appendGroup opens a fresh group slot in res.groups, reusing the pooled
// member-set backing of a previously truncated slot when one is available.
func (e *explorer) appendGroup(res *walkResult) *walkGroup {
	gi := len(res.groups)
	if gi < cap(res.groups) {
		res.groups = res.groups[:gi+1]
	} else {
		res.groups = append(res.groups, walkGroup{})
	}
	g := &res.groups[gi]
	g.index = gi
	g.nodes.Reset(e.d.Len())
	g.first = -1
	g.cycle, g.lat, g.portUse, g.delayNS = 0, 0, portUse{}, 0
	return g
}

// addMember makes x a member of g, whose port use grows to ports.
func (e *explorer) addMember(g *walkGroup, x int, ports portUse) {
	g.nodes.Add(x)
	g.portUse = ports
	e.groupNext[x] = g.first
	g.first = x
}

// walk runs one iteration: it constructs a complete schedule by repeatedly
// selecting an (operation, implementation option) from the Ready-Matrix with
// the chosen probability of Eq. 1 and scheduling it per Figs. 4.3.3/4.3.4.
// The returned result is the explorer's reusable iteration arena, valid
// until the next walk.
//
// The Ready-Matrix is kept incrementally and is itself the ready list: one
// contiguous block of entries per ready unit, blocks in the order the units
// became ready. Trail, merit and SP are fixed for the whole walk, so a unit's
// block, weights included, is computed once, when the unit is released; a
// pick deletes the picked unit's block and appends the blocks of the units
// it releases. The entries are therefore exactly the slice a per-step
// rebuild over the ready list produces (walkReference in the tests), and
// with them the deterministic random stream.
//
//alloc:free
func (e *explorer) walk() *walkResult {
	res := e.beginWalk()
	nu := len(e.unitStart) - 1
	e.entUnit, e.entOpt, e.entW = e.entUnit[:0], e.entOpt[:0], e.entW[:0]
	for u := 0; u < nu; u++ {
		if e.indeg[u] == 0 {
			e.appendEntries(u)
		}
	}
	for pos := 0; len(e.entUnit) > 0; pos++ {
		i := e.pickEntry(e.entW)
		u := e.entUnit[i]
		e.issueUnit(res, u, e.entOpt[i], pos)
		e.dropEntries(i)
		// Retire the unit, release successors. The CSR list visits each
		// dependent unit exactly once, in the first-encounter order the
		// per-walk edge map used to consume — preserving the Ready-Matrix's
		// growth order and with it the deterministic random stream.
		e.issued[u] = true
		for _, b := range e.unitSuccs[e.unitSuccStart[u]:e.unitSuccStart[u+1]] {
			if e.issued[b] {
				continue
			}
			e.indeg[b]--
			if e.indeg[b] == 0 {
				e.appendEntries(b)
			}
		}
	}
	e.finishWalk(res)
	return res
}

// beginWalk resets the iteration arena, the reservation table and the
// per-unit dependence state for a fresh walk and returns the result arena.
func (e *explorer) beginWalk() *walkResult {
	n := e.d.Len()
	e.ensureUnits()
	nu := len(e.unitStart) - 1

	res := &e.wres
	res.tet = 0
	res.chosen = grow(res.chosen, n)
	res.orderPos = grow(res.orderPos, n)
	res.groupOf = grow(res.groupOf, n)
	res.depthNS = grow(res.depthNS, n)
	for i := 0; i < n; i++ {
		res.chosen[i] = -1
		res.orderPos[i] = 0
		res.groupOf[i] = -1
		res.depthNS[i] = 0
	}
	res.groups = res.groups[:0]

	if e.table == nil {
		e.table = sched.NewTable(e.cfg)
	} else {
		e.table.Reuse(e.cfg)
	}
	e.indeg = grow(e.indeg, nu)
	copy(e.indeg, e.unitIndeg0)
	e.doneCycle = grow(e.doneCycle, n) // completion cycle, 0 = unscheduled
	e.issueCycle = grow(e.issueCycle, n)
	for i := 0; i < n; i++ {
		e.doneCycle[i], e.issueCycle[i] = 0, 0
	}
	e.issued = grow(e.issued, nu)
	for u := 0; u < nu; u++ {
		e.issued[u] = false
	}
	e.groupNext = grow(e.groupNext, n) // written by addMember before any read
	return res
}

// finishWalk records the walk's execution time and critical path.
func (e *explorer) finishWalk(res *walkResult) {
	for _, c := range e.doneCycle {
		if c > res.tet {
			res.tet = c
		}
	}
	e.criticalNodes(res)
}

// appendEntries appends ready unit u's Ready-Matrix block: a fixed ISE is one
// pseudo-operation with a single implied option (-1), a free node one entry
// per implementation option weighted by Eq. 1.
func (e *explorer) appendEntries(u int) {
	um := e.unitMembers[e.unitStart[u]:e.unitStart[u+1]]
	if len(um) > 1 || e.fixedGroupOf[um[0]] >= 0 {
		e.entUnit, e.entOpt = append(e.entUnit, u), append(e.entOpt, -1)
		e.entW = append(e.entW, e.p.InitMeritHW)
		return
	}
	x := um[0]
	trail, merit := e.tab.Trail[x], e.tab.Merit[x]
	for o := range trail {
		w := e.p.Alpha*trail[o] + (1-e.p.Alpha)*merit[o] + e.p.Lambda*e.sp[x]
		e.entUnit, e.entOpt = append(e.entUnit, u), append(e.entOpt, o)
		e.entW = append(e.entW, w)
	}
}

// dropEntries deletes the block of the unit owning entry i, keeping the
// order of the remaining entries.
func (e *explorer) dropEntries(i int) {
	u := e.entUnit[i]
	lo, hi := i, i+1
	for lo > 0 && e.entUnit[lo-1] == u {
		lo--
	}
	for hi < len(e.entUnit) && e.entUnit[hi] == u {
		hi++
	}
	k := len(e.entUnit) - (hi - lo)
	copy(e.entUnit[lo:], e.entUnit[hi:])
	copy(e.entOpt[lo:], e.entOpt[hi:])
	copy(e.entW[lo:], e.entW[hi:])
	e.entUnit, e.entOpt, e.entW = e.entUnit[:k], e.entOpt[:k], e.entW[:k]
}

// pickEntry selects a Ready-Matrix entry: the first maximal weight under
// Params.Greedy, else a weighted draw (Eq. 1).
func (e *explorer) pickEntry(weights []float64) int {
	if !e.p.Greedy {
		return aco.SelectWeighted(e.rng, weights)
	}
	pick := 0
	for i := 1; i < len(weights); i++ {
		if weights[i] > weights[pick] {
			pick = i
		}
	}
	return pick
}

// issueUnit schedules unit u with option pickOpt (-1 for a fixed ISE) as the
// walk's pos-th pick.
func (e *explorer) issueUnit(res *walkResult, u, pickOpt, pos int) {
	d := e.d
	table, doneCycle, issueCycle := e.table, e.doneCycle, e.issueCycle
	um := e.unitMembers[e.unitStart[u]:e.unitStart[u+1]]

	// LTS: latest completion among predecessors (0 if none).
	lts, lp := 0, -1
	for _, x := range um {
		for _, p := range d.G.Preds(x) {
			if e.unitOf[p] == u {
				continue
			}
			if doneCycle[p] >= lts {
				lts = doneCycle[p]
				lp = p
			}
		}
	}

	switch {
	case pickOpt < 0:
		// Fixed ISE group.
		f := e.fixed[e.fixedGroupOf[um[0]]]
		cts := lts + 1
		for !table.FitsNewISE(cts, f.Cycles, f.In, f.Out) {
			cts++
		}
		table.ReserveNewISE(cts, f.Cycles, f.In, f.Out)
		for _, x := range um {
			issueCycle[x] = cts
			doneCycle[x] = cts + f.Cycles - 1
			res.orderPos[x] = pos
		}
	case !e.isHWOption(um[0], pickOpt):
		// Software Operation-Scheduling (Fig. 4.3.3).
		x := um[0]
		class := d.Nodes[x].SW[pickOpt].Class
		reads, writes := len(d.Nodes[x].Inputs), 0
		if _, ok := d.Nodes[x].Instr.Defs(); ok {
			writes = 1
		}
		cts := lts + 1
		for !table.FitsSW(cts, class, reads, writes) {
			cts++
		}
		table.ReserveSW(cts, class, reads, writes)
		res.chosen[x] = pickOpt
		issueCycle[x] = cts
		doneCycle[x] = cts + d.Nodes[x].SW[pickOpt].Cycles - 1
		res.orderPos[x] = pos
	default:
		// Hardware Operation-Scheduling (Fig. 4.3.4): try to pack with
		// the latest parent's iteration ISE, else open a new one.
		x := um[0]
		e.scheduleHW(res, x, pickOpt, lts, lp)
		res.orderPos[x] = pos
	}
}

// scheduleHW implements Fig. 4.3.4: if the latest parent lp is a member of a
// hardware group formed this iteration, try to pack x into that group at the
// group's issue cycle; otherwise issue a fresh single-operation ISE after
// lts.
func (e *explorer) scheduleHW(res *walkResult, x, opt, lts, lp int) {
	delay := e.hwDelay(x, opt)
	if lp >= 0 && res.groupOf[lp] >= 0 && e.tryPack(res, &res.groups[res.groupOf[lp]], x, delay) {
		res.chosen[x] = opt
		return
	}
	// New single-op ISE.
	lat := sched.CyclesForDelay(delay)
	g := e.appendGroup(res)
	ports := e.solo[x]
	cts := lts + 1
	for !e.table.FitsNewISE(cts, lat, ports.reads, ports.writes) {
		cts++
	}
	e.table.ReserveNewISE(cts, lat, ports.reads, ports.writes)
	g.cycle, g.lat, g.delayNS = cts, lat, delay
	e.addMember(g, x, ports)
	res.groupOf[x] = g.index
	res.chosen[x] = opt
	res.depthNS[x] = delay
	e.issueCycle[x] = cts
	e.doneCycle[x] = cts + lat - 1
}

// tryPack attempts to grow group g with node x, whose hardware option has
// the given delay, at the group's issue cycle. g is touched only when x
// fits. x cannot have scheduled consumers (its own unit is only being
// issued now), so no member of g consumes x.
func (e *explorer) tryPack(res *walkResult, g *walkGroup, x int, delay float64) bool {
	d := e.d
	c, doneCycle := g.cycle, e.doneCycle
	// Every external operand of x must be available before c.
	for _, p := range d.G.Preds(x) {
		if g.nodes.Contains(p) {
			continue
		}
		if doneCycle[p] >= c {
			return false
		}
	}
	// Combinational depth of x inside the grown group.
	depth := 0.0
	for _, p := range d.G.Preds(x) {
		if g.nodes.Contains(p) && res.depthNS[p] > depth {
			depth = res.depthNS[p]
		}
	}
	depth += delay
	newDelay := g.delayNS
	if depth > newDelay {
		newDelay = depth
	}
	newLat := sched.CyclesForDelay(newDelay)
	if e.p.MaxISECycles > 0 && newLat > e.p.MaxISECycles {
		return false
	}
	grown := e.packIO(g, x)
	if !e.table.FitsISEUpdate(c, g.lat, newLat, g.reads, grown.reads, g.writes, grown.writes) {
		return false
	}
	// Extending the latency must not invalidate already scheduled consumers
	// of the group's results. x's consumers are all unscheduled.
	if newLat > g.lat {
		for m := g.first; m >= 0; m = e.groupNext[m] {
			for _, y := range d.Nodes[m].DataSuccs {
				if g.nodes.Contains(y) || doneCycle[y] == 0 {
					continue
				}
				if e.issueCycle[y] < c+newLat {
					return false
				}
			}
		}
	}
	e.table.UpdateISE(c, g.lat, newLat, g.reads, grown.reads, g.writes, grown.writes)
	g.lat = newLat
	g.delayNS = newDelay
	e.addMember(g, x, grown)
	res.groupOf[x] = g.index
	res.depthNS[x] = depth
	e.issueCycle[x] = c
	done := c + newLat - 1
	for m := g.first; m >= 0; m = e.groupNext[m] {
		doneCycle[m] = done
	}
	return true
}

// packIO returns the port use of group g grown by node x, from g's port use
// and x's operands alone; g is left untouched. No member of g consumes x, so
// x's result is none of g's reads, and growing g by x changes the counts
// only through x:
//   - IN gains each distinct operand of x from outside g that no member
//     reads already: a producer none of whose consumers is in g, or a
//     live-in register outside g's live-in set.
//   - OUT gains x's own result when it is live out or consumed at all, and
//     loses each distinct member feeding x that is not live out and whose
//     only consumer outside g was x.
//
// The counts equal dfg.InScratch and dfg.Out of the grown set; for a
// group with no members they are x's own IN and OUT (initDFG's solo).
func (e *explorer) packIO(g *walkGroup, x int) portUse {
	nodes := e.d.Nodes
	node := nodes[x]
	u := g.portUse
	for i, src := range node.Inputs {
		p := src.Producer
		switch {
		case p < 0:
			if !u.liveIn.Contains(src.Reg) {
				u.liveIn = u.liveIn.Add(src.Reg)
				u.reads++
			}
		case readsProducer(node.Inputs[:i], p):
			// A repeated operand counts once.
		case g.nodes.Contains(p):
			if !nodes[p].LiveOut && !consumedOutside(nodes[p].DataSuccs, g.nodes, x) {
				u.writes--
			}
		case !consumedIn(nodes[p].DataSuccs, g.nodes):
			u.reads++
		}
	}
	if node.LiveOut || len(node.DataSuccs) > 0 {
		u.writes++
	}
	return u
}

// readsProducer reports whether one of the operands ins is produced by p.
func readsProducer(ins []dfg.ValueSource, p int) bool {
	for _, src := range ins {
		if src.Producer == p {
			return true
		}
	}
	return false
}

// consumedIn reports whether one of the consumers succs is in s.
func consumedIn(succs []int, s graph.NodeSet) bool {
	for _, y := range succs {
		if s.Contains(y) {
			return true
		}
	}
	return false
}

// consumedOutside reports whether one of the consumers succs other than x is
// outside s.
func consumedOutside(succs []int, s graph.NodeSet, x int) bool {
	for _, y := range succs {
		if y != x && !s.Contains(y) {
			return true
		}
	}
	return false
}

// criticalNodes computes the latency-weighted critical path of the
// iteration's contracted schedule graph (walk groups, fixed ISEs, software
// nodes) and marks member nodes in res.critical.
//
// The longest-path sweeps visit the nodes in issue-cycle order, which is a
// topological order of the contraction. Every member of a unit issues in the
// unit's cycle, every latency is at least one cycle, and the walk issues a
// node only after each operand produced outside its unit has completed:
// issueUnit starts its search at the latest such completion + 1, tryPack
// packs only nodes whose outside operands complete before the group's cycle,
// and a group's latency grows only while its scheduled consumers still issue
// after its new completion. So along every contracted edge the issue cycle
// strictly increases. Longest paths are maxima, the same over any
// topological order and over duplicate contracted edges, so the marks equal
// those of the CSR-and-Kahn sweep kept as criticalNodesReference in the
// tests.
func (e *explorer) criticalNodes(res *walkResult) {
	d := e.d
	n := d.Len()
	// Final contraction: the iteration groups, then the fixed ISEs, then
	// every other node on its own.
	e.cFinalOf = grow(e.cFinalOf, n)
	finalOf := e.cFinalOf
	lats := e.cLats[:0]
	for gi := range res.groups {
		lats = append(lats, res.groups[gi].lat)
	}
	for _, f := range e.fixed {
		lats = append(lats, f.Cycles)
	}
	for i := 0; i < n; i++ {
		switch {
		case res.groupOf[i] >= 0:
			finalOf[i] = res.groupOf[i]
		case e.fixedGroupOf[i] >= 0:
			finalOf[i] = len(res.groups) + e.fixedGroupOf[i]
		default:
			lat := 1
			if res.chosen[i] >= 0 && !e.isHWOption(i, res.chosen[i]) {
				lat = d.Nodes[i].SW[res.chosen[i]].Cycles
			}
			finalOf[i] = len(lats)
			lats = append(lats, lat)
		}
	}
	e.cLats = lats
	nu := len(lats)

	// Counting sort of the nodes by issue cycle, 1..res.tet. The offsets
	// sit on the stack for schedules of up to 254 cycles.
	var buf [256]int
	start := buf[:]
	if need := res.tet + 2; need > len(buf) {
		e.cCycleStart = grow(e.cCycleStart, need)
		start = e.cCycleStart
		for c := range start {
			start[c] = 0
		}
	} else {
		start = buf[:need]
	}
	for _, c := range e.issueCycle {
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	e.cOrder = grow(e.cOrder, n)
	order := e.cOrder
	for v, c := range e.issueCycle {
		order[start[c]] = v
		start[c]++
	}

	e.cDown = grow(e.cDown, nu)
	e.cUp = grow(e.cUp, nu)
	down, up := e.cDown, e.cUp
	copy(down, lats)
	copy(up, lats)
	best := 0
	for _, v := range order {
		m := finalOf[v]
		for _, p := range d.G.Preds(v) {
			if a := finalOf[p]; a != m && down[a]+lats[m] > down[m] {
				down[m] = down[a] + lats[m]
			}
		}
		if down[m] > best {
			best = down[m]
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		m := finalOf[v]
		for _, s := range d.G.Succs(v) {
			if b := finalOf[s]; b != m && up[b]+lats[m] > up[m] {
				up[m] = up[b] + lats[m]
			}
		}
	}
	res.critical.Reset(n)
	for v := 0; v < n; v++ {
		m := finalOf[v]
		if down[m]+up[m]-lats[m] == best {
			res.critical.Add(v)
		}
	}
}
