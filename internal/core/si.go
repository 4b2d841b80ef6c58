package core

import (
	"context"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
)

// siKind is the single-issue baseline (package baseline): restart r's seed
// is p.Seed + r*104729, and the best restart has the fewest serial cycles —
// the baseline's own objective, faithfully ignorant of the multiple-issue
// outcome.
var siKind = kind{
	step:   func(ws *workerScratch) step { return &ws.si },
	stride: 104729,
	key:    serialCycles,
}

// serialCycles is the single-issue execution time of r's accepted ISEs on
// d: one cycle per software operation plus each ISE's latency.
func serialCycles(d *dfg.DFG, r *Result) int {
	n := d.Len()
	for _, ise := range r.ISEs {
		n += ise.Cycles - ise.Nodes.Len()
	}
	return n
}

// ExploreSI runs the legality-only single-issue exploration of the paper's
// reference [8] on d through the restart driver; package baseline documents
// the model. It uses no evaluation cache and returns no checkpoint: a
// cancelled run returns ctx's error. Per-worker scratch comes from scr (nil
// uses a private pool); results are byte-identical with or without it, at
// any worker count.
func ExploreSI(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params, scr *Scratch) (*Result, error) {
	p.NoEvalCache = true
	res, _, err := exploreResumable(ctx, d, cfg, p, nil, ResumeOptions{Scratch: scr}, siKind)
	return res, err
}

// siExplorer is the SI baseline's step. It has no notion of operation
// location — no instruction scheduling, no critical path, no Max_AEC slack
// — and scores a solution by its serial cycle count. Every `arena:` field is
// scratch recycled each iteration, so steady-state iterations allocate
// nothing (TestBaselineSteadyStateAllocs).
type siExplorer struct {
	runState
	chosen []int // arena: selectOptions' per-node option choices

	// Iteration groups — the connected components of hardware-chosen free
	// nodes — as a flat CSR: group g's members are
	// groupNodes[groupStart[g]:groupStart[g+1]], sorted by topological
	// position, and groupOf maps node -> group (-1 if software/fixed).
	// Rebuilt by buildGroups every iteration.
	hwSet      graph.NodeSet // arena: hardware-chosen node set
	groupOf    []int         // arena: node -> group index
	groupStart []int         // arena: CSR offsets into groupNodes
	groupNodes []int         // arena: flat group-member storage
	groupStack []int         // arena: component DFS stack

	meter VSMeter       // measures each vSx and applies its merit cases
	vsSet graph.NodeSet // arena: the virtual subgraph vSx being measured
}

func (e *siExplorer) state() *runState { return &e.runState }

// bind has nothing to do: the baseline keeps no restart-scoped state of
// its own.
func (e *siExplorer) bind() {}

// construct is SI's step: draw one option per free node and count the
// serial cycles of that selection.
//
//alloc:free
func (e *siExplorer) construct() int {
	e.selectOptions()
	return e.serialCycles()
}

// update applies the trail and legality-only merit updates to the last
// selection.
//
//alloc:free
func (e *siExplorer) update(improved bool) {
	e.trailUpdate(improved)
	e.meritUpdate()
}

// trailUpdate applies Fig. 4.3.5 (aco.Tables.UpdateTrail) to every free
// node. The baseline keeps no execution order, so ρ5 never applies.
//
//alloc:free
func (e *siExplorer) trailUpdate(improved bool) {
	for x := 0; x < e.d.Len(); x++ {
		if e.fixedGroupOf[x] < 0 {
			e.tab.UpdateTrail(x, e.chosen[x], improved, false)
		}
	}
}

// selectOptions draws one implementation option per free node in node order
// into chosen — one rng draw per free node, the draw order the
// deterministic random stream depends on.
//
//alloc:free
func (e *siExplorer) selectOptions() {
	n := e.d.Len()
	e.chosen = grow(e.chosen, n)
	for x := 0; x < n; x++ {
		if e.fixedGroupOf[x] >= 0 {
			e.chosen[x] = -1
			continue
		}
		e.chosen[x] = aco.SelectWeighted(e.rng, e.tab.Weights(x))
	}
}

// buildGroups computes the iteration groups — the connected components of
// hardware-chosen free nodes under chosen — into the flat CSR arenas. Each
// component is discovered from its smallest member and its member segment is
// sorted by topological position, so metric sweeps over a group accumulate
// in exactly the order a whole-topo filtered scan would.
//
//alloc:free
func (e *siExplorer) buildGroups() {
	d := e.d
	n := d.Len()
	e.hwSet.Reset(n)
	hw := &e.hwSet
	anyHW := false
	for v := 0; v < n; v++ {
		if e.fixedGroupOf[v] < 0 && e.isHWOption(v, e.chosen[v]) && d.Nodes[v].ISEEligible() {
			hw.Add(v)
			anyHW = true
		}
	}
	e.groupOf = grow(e.groupOf, n)
	groupOf := e.groupOf
	for i := range groupOf {
		groupOf[i] = -1
	}
	starts := e.groupStart[:0]
	mem := e.groupNodes[:0]
	if anyHW {
		stack := e.groupStack[:0]
		ng := 0
		for v := 0; v < n; v++ {
			if !hw.Contains(v) || groupOf[v] >= 0 {
				continue
			}
			starts = append(starts, len(mem))
			stack = append(stack[:0], v)
			groupOf[v] = ng
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				mem = append(mem, u)
				for _, w := range d.G.Succs(u) {
					if hw.Contains(w) && groupOf[w] < 0 {
						groupOf[w] = ng
						stack = append(stack, w)
					}
				}
				for _, w := range d.G.Preds(u) {
					if hw.Contains(w) && groupOf[w] < 0 {
						groupOf[w] = ng
						stack = append(stack, w)
					}
				}
			}
			d.SortTopo(mem[starts[ng]:])
			ng++
		}
		e.groupStack = stack
	}
	starts = append(starts, len(mem))
	e.groupStart, e.groupNodes = starts, mem
}

// serialCycles is the single-issue execution-time model: one cycle per
// software instruction plus the latency of each ISE, all strictly
// sequential, for the accepted ISEs and the iteration groups of chosen. It
// (re)builds the iteration groups and leaves them for meritUpdate.
//
//alloc:free
func (e *siExplorer) serialCycles() int {
	cycles, counted := 0, 0
	for _, f := range e.fixed {
		cycles += f.Cycles
		counted += f.Nodes.Len()
	}
	e.buildGroups()
	for g := 0; g < len(e.groupStart)-1; g++ {
		members := e.groupNodes[e.groupStart[g]:e.groupStart[g+1]]
		// A member's predecessors in hwSet are in its own group.
		cycles += sched.CyclesForDelay(e.meter.Delay(e.d, e.hwSet, members, e.chosen, e.tab.NumSW))
		counted += len(members)
	}
	// Fixed members, group members and the remaining one-cycle software
	// stream are disjoint, so the uncounted remainder is n - counted.
	return cycles + e.d.Len() - counted
}

// meritUpdate is the legality-only merit function: MI's Fig. 4.3.7 update
// (VSMeter) with no critical-path case and no slack case — only size,
// constraint violations, and serial cycle saving. The meter's
// location-unaware case-4 inputs are the baseline's: a legal vSx replaces
// size(vSx) one-cycle instructions and every subgraph counts as critical. It
// reads the iteration groups serialCycles left in the explorer.
//
// A grouped node's vSx is exactly its iteration group, whose member segment
// is already in topological order. Each operation's update writes only its
// own merit row, so the sweep visits grouped nodes one group at a time and
// measures each group once; ungrouped nodes build their own vSx.
//
//alloc:free
func (e *siExplorer) meritUpdate() {
	d := e.d
	for g := 0; g < len(e.groupStart)-1; g++ {
		members := e.groupNodes[e.groupStart[g]:e.groupStart[g+1]]
		e.vsSet.Reset(d.Len())
		for _, v := range members {
			e.vsSet.Add(v)
		}
		e.meter.Measure(d, &e.cfg, e.vsSet, members, e.chosen, e.tab.NumSW, &e.io)
		for _, x := range members {
			e.meter.Merit(&e.p, d, e.tab.Merit[x], x)
		}
	}
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 || e.groupOf[x] >= 0 {
			continue
		}
		if len(d.Nodes[x].HW) > 0 {
			e.ungroupedVS(x)
			e.meter.Measure(d, &e.cfg, e.vsSet, nil, e.chosen, e.tab.NumSW, &e.io)
		}
		e.meter.Merit(&e.p, d, e.tab.Merit[x], x)
	}
}

// addGroupMembers unions iteration group g into the virtual-subgraph arena.
func (e *siExplorer) addGroupMembers(g int) {
	for _, v := range e.groupNodes[e.groupStart[g]:e.groupStart[g+1]] {
		e.vsSet.Add(v)
	}
}

// ungroupedVS builds vSx of an ungrouped node x into the virtual-subgraph
// arena: x joined with its adjacent hardware group(s). Build order is
// irrelevant — only membership is read.
func (e *siExplorer) ungroupedVS(x int) {
	d := e.d
	e.vsSet.Reset(d.Len())
	e.vsSet.Add(x)
	for _, nb := range d.G.Succs(x) {
		if g := e.groupOf[nb]; g >= 0 {
			e.addGroupMembers(g)
		}
	}
	for _, nb := range d.G.Preds(x) {
		if g := e.groupOf[nb]; g >= 0 {
			e.addGroupMembers(g)
		}
	}
}

// bestCandidate returns the candidate of the converged selection with the
// best *serial* gain — the single-issue objective — with the resulting
// serial cycle count. A candidate that the kernel rejects together with the
// accepted ISEs is skipped: each is convex on its own, but with the
// accepted groups it can still close a dependence cycle in the contracted
// graph, and the final schedule would fail. Only the winner is checked, and
// the next best is taken when it is rejected, so a round whose winner is
// accepted schedules once.
func (e *siExplorer) bestCandidate(curSerial int) (int, int) {
	e.takenCandidates()
	for {
		i, serial := bestSerialPart(e.sh.cands, curSerial)
		if i < 0 {
			return -1, 0
		}
		if _, err := e.kern.Schedule(e.d, e.candidateAssignment(i), e.cfg); err == nil {
			return i, serial
		}
		e.sh.cands[i].rejected = true
	}
}

// bestSerialPart returns the index of the candidate not yet rejected with
// the lowest serial cycle count that does not exceed curSerial, ties broken
// by smaller area and then by position, with that count; the index is -1
// when none qualifies.
//
//alloc:free
func bestSerialPart(cands []candidate, curSerial int) (int, int) {
	best, bestSerial := -1, curSerial
	for i := range cands {
		c := &cands[i]
		if c.rejected {
			continue
		}
		// Serial gain: members leave the 1-cycle stream, ISE joins.
		serial := curSerial - c.nodes.Len() + c.cycles
		if serial > curSerial {
			continue
		}
		if best < 0 || serial < bestSerial ||
			(serial == bestSerial && c.areaUM2 < cands[best].areaUM2) {
			best, bestSerial = i, serial
		}
	}
	return best, bestSerial
}
