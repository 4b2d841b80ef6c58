// Package baseline re-implements the comparison point of the paper's
// evaluation: the ant-colony ISE exploration of Wu et al. (HiPEAC 2007,
// reference [8]), which considers only the *legality* of operations — port,
// convexity and eligibility constraints — and models a single-issue
// processor. It has no notion of operation location: no instruction
// scheduling, no critical path, no Max_AEC slack. Its figure of merit is the
// serial cycle count (one instruction per cycle), so it happily packs
// operations a multiple-issue machine would have executed in parallel anyway
// — exactly the deficiency §1.4 of the paper demonstrates.
//
// Results are evaluated downstream on the multiple-issue machine by the same
// design flow as the proposed algorithm ("schedule the result of
// single-issue with ISE on a 2-issue processor", Fig. 1.3.1 case 1).
//
// The explorer follows the pooled-arena pattern of internal/core
// (DESIGN.md §13): every per-iteration structure is a grow-only buffer owned
// by the explorer, so steady-state iterations allocate nothing
// (TestBaselineSteadyStateAllocs), and explorers themselves are pooled in a
// Scratch so arena warmup is paid once per worker per run, not once per
// (worker, block).
package baseline

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/aco"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// workerScratch bundles the reusable per-worker state of one baseline
// exploration worker: the scheduling kernel (for the final multiple-issue
// evaluation) and the explorer arenas. Pure scratch — which worker previously
// used them never affects a restart's result.
type workerScratch struct {
	kern *sched.Scheduler
	exp  *explorer
}

// Scratch is a pool of baseline worker scratch shared across the
// explorations of one run, mirroring core.Scratch. Safe for concurrent use;
// see parallel.ScratchPool for the reuse contract.
type Scratch struct {
	pool parallel.ScratchPool
}

// NewScratch returns an empty scratch pool.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.pool.New = func() any {
		return &workerScratch{kern: sched.NewScheduler(), exp: &explorer{}}
	}
	return s
}

func (s *Scratch) acquire() *workerScratch   { return s.pool.Get().(*workerScratch) }
func (s *Scratch) release(ws *workerScratch) { s.pool.Put(ws) }

// ExploreSharedCtx runs the legality-only single-issue exploration on d.
// The machine configuration supplies only the register-port constraints
// Nin/Nout (the single-issue model ignores issue width); the returned
// Result's Base and Final cycle counts are nevertheless measured on cfg by
// the multiple-issue scheduler so that results are directly comparable with
// core.Explore.
//
// Per-worker kernels and explorer arenas come from scr, so a caller
// exploring many blocks (flow.BuildPool) pays arena warmup once per worker
// instead of once per block; a nil scr uses a private pool. Scratch is pure
// scratch: results are byte-identical with or without it, at any worker
// count.
//
// The context is checked between restarts and between convergence
// iterations. The baseline has no checkpoint format — a cancelled run
// returns ctx's error and a later run simply starts over (it is
// deterministic, so a rerun reproduces what the uninterrupted run would
// have returned).
func ExploreSharedCtx(ctx context.Context, d *dfg.DFG, cfg machine.Config, p core.Params, scr *Scratch) (*core.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("baseline: empty DFG %s", d.Name)
	}
	baseCycles, err := sched.ListScheduleLength(d, sched.AllSoftware(d.Len()), cfg)
	if err != nil {
		return nil, fmt.Errorf("baseline: base schedule of %s: %w", d.Name, err)
	}
	restarts := p.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Restarts are independent and deterministically seeded, so they fan out
	// across the shared bounded worker pool; the left-to-right reduction
	// below keeps parallel and sequential runs identical. Each worker owns
	// one scratch (kernel + explorer — pure scratch, never affects results).
	results := make([]*core.Result, restarts)
	serials := make([]int, restarts)
	errs := make([]error, restarts)
	if scr == nil {
		scr = NewScratch()
	}
	ws := make([]*workerScratch, parallel.Degree(p.Workers, restarts))
	for i := range ws {
		ws[i] = scr.acquire()
	}
	defer func() {
		for _, w := range ws {
			scr.release(w)
		}
	}()
	cancelErr := parallel.ForEachWorkerCtx(ctx, restarts, p.Workers, func(w, r int) {
		results[r], serials[r], errs[r] = runOnce(ctx, d, cfg, p, p.Seed+int64(r)*104729, baseCycles, ws[w])
	})
	if cancelErr != nil {
		return nil, cancelErr
	}
	var best *core.Result
	var bestSerial int
	for r := 0; r < restarts; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		// The baseline optimizes its own (serial) objective; ties broken by
		// area, faithfully ignorant of the multiple-issue outcome.
		if best == nil || serials[r] < bestSerial ||
			(serials[r] == bestSerial && results[r].AreaUM2() < best.AreaUM2()) {
			best, bestSerial = results[r], serials[r]
		}
	}
	return best, nil
}

// explorer carries the baseline's per-DFG state across rounds and
// iterations. One explorer is owned by one exploration worker at a time and
// reused across restarts, explorations and DFGs (reset rebinds it): every
// `arena:` annotated field below is scratch recycled each iteration, so
// steady-state option selection and merit sweeps allocate nothing. Reuse is
// pure scratch — which worker runs which restart never affects the result.
type explorer struct {
	d   *dfg.DFG
	cfg machine.Config
	p   core.Params
	rng *rand.Rand

	// fixed are ISEs accepted in earlier rounds; their members (marked in
	// inISE) no longer make choices.
	fixed []*core.ISE
	inISE []bool // arena: reset to false each restart

	// tab holds the trail and merit option tables of the free nodes,
	// software options first; runOnce re-seeds them each round.
	tab    aco.Tables
	chosen []int       // arena: selectOptions' per-node option choices
	cands  []*core.ISE // arena: bestCandidate's candidate list

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

	meter core.VSMeter  // measures each vSx and applies its merit cases
	vsSet graph.NodeSet // arena: the virtual subgraph vSx being measured

	io dfg.IOScratch // IN/OUT counting without dfg.In/Out's per-call map

	// evalAssign is schedulable's reusable assignment buffer. arena: valid
	// until the next schedulable call.
	evalAssign sched.Assignment
}

// reset rebinds a pooled explorer to one restart's inputs, keeping every
// warmed arena. The per-DFG table structure survives across restarts on the
// same DFG and is rebuilt when it changes; per-iteration scratch needs no
// reset — each use fully overwrites it.
func (e *explorer) reset(d *dfg.DFG, cfg machine.Config, p core.Params, rng *rand.Rand) {
	e.d, e.cfg, e.p, e.rng = d, cfg, p, rng
	e.fixed = e.fixed[:0]
	e.inISE = arena.Grow(e.inISE, d.Len())
	for i := range e.inISE {
		e.inISE[i] = false
	}
}

func runOnce(ctx context.Context, d *dfg.DFG, cfg machine.Config, p core.Params, seed int64, baseCycles int, ws *workerScratch) (*core.Result, int, error) {
	e := ws.exp
	e.reset(d, cfg, p, aco.NewRand(seed))

	res := &core.Result{BaseCycles: baseCycles, FinalCycles: baseCycles}
	curSerial := e.serialCycles(nil)
	for round := 0; round < p.MaxRounds; round++ {
		e.tab.Seed(d, p.Coefs())
		iters, err := e.converge(ctx)
		if err != nil {
			return nil, 0, err
		}
		res.Iterations += iters
		res.Rounds++
		cand, serial := e.bestCandidate(curSerial, ws.kern)
		if cand == nil {
			break
		}
		cand.SavingCycles = curSerial - serial
		e.fixed = append(e.fixed, cand)
		for _, v := range cand.Nodes.Values() {
			e.inISE[v] = true
		}
		curSerial = serial
	}

	res.ISEs = append(res.ISEs, e.fixed...)
	res.Assignment = core.BuildAssignment(d, res.ISEs)
	final, err := ws.kern.Schedule(d, res.Assignment, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("baseline: final schedule of %s: %w", d.Name, err)
	}
	res.FinalCycles = final.Length
	return res, curSerial, nil
}

// converge runs option-selection iterations until P_END or the cap. The
// context is checked before each iteration; a cancelled round aborts the
// restart with ctx's error.
func (e *explorer) converge(ctx context.Context) (int, error) {
	tetOld := 1 << 30
	for it := 1; it <= e.p.MaxIterations; it++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		chosen := e.selectOptions()
		tet := e.serialCycles(chosen)
		improved := tet <= tetOld
		e.trailUpdate(chosen, improved)
		if improved {
			tetOld = tet
		}
		e.meritUpdate(chosen)
		if e.convergedNow() {
			return it, nil
		}
	}
	return e.p.MaxIterations, nil
}

// selectOptions draws one implementation option per free node in node order
// — one rng draw per free node, the draw order the deterministic random
// stream depends on. The result aliases the explorer's arena and is valid
// until the next call.
//
//alloc:free
func (e *explorer) selectOptions() []int {
	n := e.d.Len()
	e.chosen = arena.Grow(e.chosen, n)
	chosen := e.chosen
	for x := 0; x < n; x++ {
		if e.inISE[x] {
			chosen[x] = -1
			continue
		}
		chosen[x] = aco.SelectWeighted(e.rng, e.tab.Weights(x))
	}
	//lint:ignore arenaescape caller consumes chosen before the next selectOptions call
	return chosen
}

// buildGroups computes the iteration groups — the connected components of
// hardware-chosen free nodes under chosen — into the flat CSR arenas. Each
// component is discovered from its smallest member and its member segment is
// sorted by topological position, so metric sweeps over a group accumulate
// in exactly the order a whole-topo filtered scan would.
//
//alloc:free
func (e *explorer) buildGroups(chosen []int) {
	d := e.d
	n := d.Len()
	e.hwSet.Reset(n)
	hw := &e.hwSet
	anyHW := false
	for v := 0; v < n; v++ {
		if !e.inISE[v] && chosen[v] >= e.tab.NumSW[v] && d.Nodes[v].ISEEligible() {
			hw.Add(v)
			anyHW = true
		}
	}
	e.groupOf = arena.Grow(e.groupOf, n)
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
// sequential. chosen optionally provides per-node iteration choices for
// nodes not in accepted ISEs; when given, the iteration groups are (re)built
// and left in the explorer for meritUpdate to reuse.
//
//alloc:free
func (e *explorer) serialCycles(chosen []int) int {
	cycles, counted := 0, 0
	for _, f := range e.fixed {
		cycles += f.Cycles
		counted += f.Nodes.Len()
	}
	if chosen != nil {
		e.buildGroups(chosen)
		for g := 0; g < len(e.groupStart)-1; g++ {
			members := e.groupNodes[e.groupStart[g]:e.groupStart[g+1]]
			// A member's predecessors in hwSet are in its own group.
			cycles += sched.CyclesForDelay(e.meter.Delay(e.d, e.hwSet, members, chosen, e.tab.NumSW))
			counted += len(members)
		}
	}
	// Fixed members, group members and the remaining one-cycle software
	// stream are disjoint, so the uncounted remainder is n - counted.
	return cycles + e.d.Len() - counted
}

// trailUpdate applies Fig. 4.3.5 (aco.Tables.UpdateTrail) to every free
// node. The baseline keeps no execution order, so ρ5 never applies.
//
//alloc:free
func (e *explorer) trailUpdate(chosen []int, improved bool) {
	for x := 0; x < e.d.Len(); x++ {
		if !e.inISE[x] {
			e.tab.UpdateTrail(x, chosen[x], improved, false)
		}
	}
}

// meritUpdate is the legality-only merit function: MI's Fig. 4.3.7 update
// (core.VSMeter) with no critical-path case and no slack case — only size,
// constraint violations, and serial cycle saving. The meter's
// location-unaware case-4 inputs are the baseline's: a legal vSx replaces
// size(vSx) one-cycle instructions and every subgraph counts as critical. It
// reads the iteration groups serialCycles(chosen) left in the explorer, so
// it must run after serialCycles with the same chosen.
//
// A grouped node's vSx is exactly its iteration group, whose member segment
// is already in topological order. Each operation's update writes only its
// own merit row, so the sweep visits grouped nodes one group at a time and
// measures each group once; ungrouped nodes build their own vSx.
//
//alloc:free
func (e *explorer) meritUpdate(chosen []int) {
	d := e.d
	for g := 0; g < len(e.groupStart)-1; g++ {
		members := e.groupNodes[e.groupStart[g]:e.groupStart[g+1]]
		e.vsSet.Reset(d.Len())
		for _, v := range members {
			e.vsSet.Add(v)
		}
		e.meter.Measure(d, &e.cfg, e.vsSet, members, chosen, e.tab.NumSW, &e.io)
		for _, x := range members {
			e.meter.Merit(&e.p, d, e.tab.Merit[x], x)
		}
	}
	for x := 0; x < d.Len(); x++ {
		if e.inISE[x] || e.groupOf[x] >= 0 {
			continue
		}
		if len(d.Nodes[x].HW) > 0 {
			e.ungroupedVS(x)
			e.meter.Measure(d, &e.cfg, e.vsSet, nil, chosen, e.tab.NumSW, &e.io)
		}
		e.meter.Merit(&e.p, d, e.tab.Merit[x], x)
	}
}

// addGroupMembers unions iteration group g into the virtual-subgraph arena.
func (e *explorer) addGroupMembers(g int) {
	for _, v := range e.groupNodes[e.groupStart[g]:e.groupStart[g+1]] {
		e.vsSet.Add(v)
	}
}

// ungroupedVS builds vSx of an ungrouped node x into the virtual-subgraph
// arena: x joined with its adjacent hardware group(s). Build order is
// irrelevant — only membership is read.
func (e *explorer) ungroupedVS(x int) {
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

// convergedNow checks the P_END condition over all free nodes.
//
//alloc:free
func (e *explorer) convergedNow() bool {
	for x := 0; x < e.d.Len(); x++ {
		if !e.inISE[x] && !e.tab.Converged(x) {
			return false
		}
	}
	return true
}

// bestCandidate extracts the converged hardware selection, shapes it into
// legal candidates, and returns the one with the best *serial* gain — the
// single-issue objective — together with the resulting serial cycle count.
// A part that kern rejects together with the accepted ISEs is skipped: each
// part is convex on its own, but with the accepted groups it can still close
// a dependence cycle in the contracted graph, and the final schedule would
// fail. Only the winner is checked, and the next best is taken when it is
// rejected, so a round whose winner is accepted schedules once. It runs once
// per round (not per iteration), so it stays off the zero-alloc contract and
// uses the allocating shaping helpers directly.
func (e *explorer) bestCandidate(curSerial int, kern *sched.Scheduler) (*core.ISE, int) {
	d := e.d
	taken := graph.NewNodeSet(d.Len())
	optOf := map[int]int{}
	for x := 0; x < d.Len(); x++ {
		if e.inISE[x] || !d.Nodes[x].ISEEligible() {
			continue
		}
		if o := e.tab.Taken(x); o >= e.tab.NumSW[x] {
			taken.Add(x)
			optOf[x] = o - e.tab.NumSW[x]
		}
	}
	e.cands = core.Candidates(e.cands[:0], d, taken, optOf, e.cfg, e.p.MaxISECycles, &e.io)
	parts := e.cands
	for {
		i, serial := bestSerialPart(parts, curSerial)
		if i < 0 {
			return nil, curSerial
		}
		if e.schedulable(parts[i], kern) {
			return parts[i], serial
		}
		parts = append(parts[:i], parts[i+1:]...)
	}
}

// bestSerialPart returns the index of the part with the lowest serial cycle
// count that does not exceed curSerial, ties broken by smaller area and then
// by position, with that count; the index is -1 when no part qualifies.
func bestSerialPart(parts []*core.ISE, curSerial int) (int, int) {
	best, bestSerial := -1, curSerial
	for i, ise := range parts {
		// Serial gain: members leave the 1-cycle stream, ISE joins.
		serial := curSerial - ise.Nodes.Len() + ise.Cycles
		if serial > curSerial {
			continue
		}
		if best < 0 || serial < bestSerial ||
			(serial == bestSerial && ise.AreaUM2 < parts[best].AreaUM2) {
			best, bestSerial = i, serial
		}
	}
	return best, bestSerial
}

// schedulable reports whether kern accepts ise together with the accepted
// ISEs. The assignment is built in the explorer's reusable buffer.
func (e *explorer) schedulable(ise *core.ISE, kern *sched.Scheduler) bool {
	e.evalAssign = core.BuildAssignmentWith(e.evalAssign, e.d, e.fixed, ise)
	_, err := kern.Schedule(e.d, e.evalAssign, e.cfg)
	return err == nil
}
