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
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
)

var (
	obsBaselineScratchReused = obs.Default.Counter("ise_baseline_scratch_reused_total",
		"Baseline worker scratch (kernel + explorer arenas) acquisitions served warm from a Scratch pool.")
	obsBaselineScratchFresh = obs.Default.Counter("ise_baseline_scratch_fresh_total",
		"Baseline worker scratch acquisitions that had to build a fresh kernel + explorer.")
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
	s.pool.Reused = obsBaselineScratchReused
	s.pool.Fresh = obsBaselineScratchFresh
	return s
}

func (s *Scratch) acquire() *workerScratch   { return s.pool.Get().(*workerScratch) }
func (s *Scratch) release(ws *workerScratch) { s.pool.Put(ws) }

// Explore runs the legality-only single-issue exploration on d. The machine
// configuration supplies only the register-port constraints Nin/Nout (the
// single-issue model ignores issue width); the returned Result's Base and
// Final cycle counts are nevertheless measured on cfg by the multiple-issue
// scheduler so that results are directly comparable with core.Explore.
func Explore(d *dfg.DFG, cfg machine.Config, p core.Params) (*core.Result, error) {
	//lint:ignore ctxflow compat wrapper: Explore predates cancellation; ExploreCtx is the cancellable form
	return ExploreCtx(context.Background(), d, cfg, p)
}

// ExploreCtx is Explore with cooperative cancellation: the context is
// checked between restarts and between convergence iterations. The baseline
// has no checkpoint format — a cancelled run returns ctx's error and a
// later run simply starts over (it is deterministic, so a rerun reproduces
// what the uninterrupted run would have returned).
func ExploreCtx(ctx context.Context, d *dfg.DFG, cfg machine.Config, p core.Params) (*core.Result, error) {
	return ExploreSharedCtx(ctx, d, cfg, p, nil)
}

// ExploreSharedCtx is ExploreCtx drawing its per-worker kernels and explorer
// arenas from scr, so a caller exploring many blocks (flow.BuildPool) pays
// arena warmup once per worker instead of once per block. A nil scr uses a
// private pool (per-exploration reuse only). Scratch is pure scratch:
// results are byte-identical with or without it, at any worker count.
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

	// Option tables for free nodes, software options first (numSW of them),
	// hardware after. The rows slice two flat backing arrays sized once per
	// DFG; initTables re-seeds the values each round.
	trail [][]float64
	merit [][]float64
	numSW []int
	// trailBuf and meritBuf back every trail/merit row. arena: resliced when
	// the DFG changes, owned by the rows for the explorer's lifetime.
	trailBuf, meritBuf []float64
	tablesFor          *dfg.DFG // DFG the table structure was built for

	// topo caches the DFG's topological order and topoPos each node's
	// position in it (rebuilt when the DFG changes).
	topo    []int
	topoPos []int

	chosen  []int     // arena: selectOptions' per-node option choices
	weights []float64 // arena: optWeights' combined option weights

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

	// Subgraph-metric scratch. depthF entries are written before they are
	// read in topological order, so no reset is needed between calls.
	depthF    []float64     // arena: longest-path depths
	vsSet     graph.NodeSet // arena: hwMerit's virtual subgraph vSx
	vsMembers []int         // arena: membersInTopoOrder's result
	hwCycles  []int         // arena: per-option subgraph cycles
	hwAreas   []float64     // arena: per-option subgraph areas

	io dfg.IOScratch // IN/OUT counting without dfg.In/Out's per-call map

	convex graph.Scratch // reusable convexity-check traversal buffers
}

// reset rebinds a pooled explorer to one restart's inputs, keeping every
// warmed arena. Per-DFG caches (topo order, table structure) survive across
// restarts on the same DFG and are dropped when it changes; per-iteration
// scratch needs no reset — each use fully overwrites it.
func (e *explorer) reset(d *dfg.DFG, cfg machine.Config, p core.Params, rng *rand.Rand) {
	if e.d != d {
		e.topo, e.topoPos = nil, nil
		e.tablesFor = nil
	}
	e.d, e.cfg, e.p, e.rng = d, cfg, p, rng
	e.fixed = e.fixed[:0]
	e.inISE = growBools(e.inISE, d.Len())
	for i := range e.inISE {
		e.inISE[i] = false
	}
}

// ensureTopo computes and caches the DFG's topological order on first use
// after a DFG change; every later call returns the cache.
func (e *explorer) ensureTopo() error {
	if e.topo != nil {
		return nil
	}
	order, err := e.d.G.TopoOrder()
	if err != nil {
		return fmt.Errorf("baseline: %s: %w", e.d.Name, err)
	}
	e.topo = order
	e.topoPos = growInts(e.topoPos, len(order))
	for i, v := range order {
		e.topoPos[v] = i
	}
	return nil
}

func runOnce(ctx context.Context, d *dfg.DFG, cfg machine.Config, p core.Params, seed int64, baseCycles int, ws *workerScratch) (*core.Result, int, error) {
	e := ws.exp
	e.reset(d, cfg, p, aco.NewRand(seed))
	if err := e.ensureTopo(); err != nil {
		return nil, 0, err
	}

	res := &core.Result{BaseCycles: baseCycles, FinalCycles: baseCycles}
	curSerial := e.serialCycles(nil)
	for round := 0; round < p.MaxRounds; round++ {
		e.initTables()
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

// initTables (re)seeds the option tables for a fresh round: trail to zero,
// merit to the configured initial values. The row structure over the flat
// backing arrays is rebuilt only when the DFG changes.
func (e *explorer) initTables() {
	n := e.d.Len()
	if e.tablesFor != e.d {
		e.numSW = growInts(e.numSW, n)
		total := 0
		for i := 0; i < n; i++ {
			node := e.d.Nodes[i]
			e.numSW[i] = len(node.SW)
			total += len(node.SW) + len(node.HW)
		}
		e.trailBuf = growFloats(e.trailBuf, total)
		e.meritBuf = growFloats(e.meritBuf, total)
		if cap(e.trail) < n {
			e.trail = make([][]float64, n)
			e.merit = make([][]float64, n)
		} else {
			e.trail = e.trail[:n]
			e.merit = e.merit[:n]
		}
		off := 0
		for i := 0; i < n; i++ {
			node := e.d.Nodes[i]
			opts := len(node.SW) + len(node.HW)
			//lint:ignore arenaescape trail rows alias trailBuf within the same owner; rows and backing array are rebuilt together on DFG change
			e.trail[i] = e.trailBuf[off : off+opts : off+opts]
			//lint:ignore arenaescape merit rows alias meritBuf within the same owner; rows and backing array are rebuilt together on DFG change
			e.merit[i] = e.meritBuf[off : off+opts : off+opts]
			off += opts
		}
		e.tablesFor = e.d
	}
	for i := 0; i < n; i++ {
		trail, merit := e.trail[i], e.merit[i]
		for o := range trail {
			trail[o] = 0
			if o < e.numSW[i] {
				merit[o] = e.p.InitMeritSW
			} else {
				merit[o] = e.p.InitMeritHW
			}
		}
	}
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

// optWeights fills the shared weight buffer with node x's combined
// trail/merit option weights (Eq. 1 without the priority term — the baseline
// does not schedule). The result aliases the explorer's arena and is valid
// until the next call.
func (e *explorer) optWeights(x int) []float64 {
	e.weights = growFloats(e.weights, len(e.trail[x]))
	w := e.weights
	for o := range w {
		w[o] = e.p.Alpha*e.trail[x][o] + (1-e.p.Alpha)*e.merit[x][o]
	}
	//lint:ignore arenaescape callers consume the weights before the next optWeights call
	return w
}

// selectOptions draws one implementation option per free node in node order
// — one rng draw per free node, the draw order the deterministic random
// stream depends on. The result aliases the explorer's arena and is valid
// until the next call.
//
//alloc:free
func (e *explorer) selectOptions() []int {
	n := e.d.Len()
	e.chosen = growInts(e.chosen, n)
	chosen := e.chosen
	for x := 0; x < n; x++ {
		if e.inISE[x] {
			chosen[x] = -1
			continue
		}
		chosen[x] = aco.SelectWeighted(e.rng, e.optWeights(x))
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
		if !e.inISE[v] && chosen[v] >= e.numSW[v] && d.Nodes[v].ISEEligible() {
			hw.Add(v)
			anyHW = true
		}
	}
	e.groupOf = growInts(e.groupOf, n)
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
			// Insertion sort the segment by (unique) topological position:
			// members are nearly sorted already and small, and unlike
			// sort.Slice this allocates nothing.
			seg := mem[starts[ng]:]
			for i := 1; i < len(seg); i++ {
				v := seg[i]
				j := i - 1
				for j >= 0 && e.topoPos[seg[j]] > e.topoPos[v] {
					seg[j+1] = seg[j]
					j--
				}
				seg[j+1] = v
			}
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
			cycles += sched.CyclesForDelay(e.groupDelay(members, chosen))
			counted += len(members)
		}
	}
	// Fixed members, group members and the remaining one-cycle software
	// stream are disjoint, so the uncounted remainder is n - counted.
	return cycles + e.d.Len() - counted
}

// groupDelay is the combinational depth of one iteration group. members must
// be the group's CSR segment (topologically sorted), so each member's
// in-group predecessors are written into depthF before it reads them.
func (e *explorer) groupDelay(members []int, chosen []int) float64 {
	d := e.d
	e.depthF = growFloats(e.depthF, d.Len())
	depth := e.depthF
	g := e.groupOf[members[0]]
	maxDelay := 0.0
	for _, v := range members {
		j := chosen[v] - e.numSW[v]
		if j < 0 {
			j = 0 // member chose software; assume its first cell
		}
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if e.groupOf[p] == g && depth[p] > in {
				in = depth[p]
			}
		}
		dv := in + d.Nodes[v].HW[j].DelayNS
		depth[v] = dv
		if dv > maxDelay {
			maxDelay = dv
		}
	}
	return maxDelay
}

// vsMetrics measures subgraph vs's combinational depth and area; if override
// is a member, it uses hwIdx for that node instead of its chosen option.
// members must be vs's members in topological order — the float accumulation
// order of the original whole-topo scan.
func (e *explorer) vsMetrics(vs graph.NodeSet, members []int, chosen []int, override, hwIdx int) (delayNS, areaUM2 float64) {
	d := e.d
	e.depthF = growFloats(e.depthF, d.Len())
	depth := e.depthF
	for _, v := range members {
		j := hwIdx
		if v != override {
			j = chosen[v] - e.numSW[v]
			if j < 0 {
				j = 0 // member chose software; assume its first cell
			}
		}
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		dv := in + d.Nodes[v].HW[j].DelayNS
		depth[v] = dv
		if dv > delayNS {
			delayNS = dv
		}
		areaUM2 += d.Nodes[v].HW[j].AreaUM2
	}
	return delayNS, areaUM2
}

// membersInTopoOrder returns the members of vs sorted by topological
// position. The result aliases the explorer's arena and is valid until the
// next call.
func (e *explorer) membersInTopoOrder(vs graph.NodeSet) []int {
	members := vs.AppendValues(e.vsMembers[:0])
	for i := 1; i < len(members); i++ {
		v := members[i]
		j := i - 1
		for j >= 0 && e.topoPos[members[j]] > e.topoPos[v] {
			members[j+1] = members[j]
			j--
		}
		members[j+1] = v
	}
	e.vsMembers = members
	//lint:ignore arenaescape callers consume the member list before the next membersInTopoOrder call
	return members
}

//alloc:free
func (e *explorer) trailUpdate(chosen []int, improved bool) {
	for x := 0; x < e.d.Len(); x++ {
		if e.inISE[x] {
			continue
		}
		for o := range e.trail[x] {
			sel := chosen[x] == o
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
			if e.trail[x][o] < 0 {
				e.trail[x][o] = 0
			}
		}
	}
}

// meritUpdate is the legality-only merit function: no critical-path case, no
// slack case — only size, constraint violations, and serial cycle saving. It
// reads the iteration groups serialCycles(chosen) left in the explorer, so
// it must run after serialCycles with the same chosen.
//
//alloc:free
func (e *explorer) meritUpdate(chosen []int) {
	d := e.d
	for x := 0; x < d.Len(); x++ {
		if e.inISE[x] {
			continue
		}
		node := d.Nodes[x]
		for i := 0; i < e.numSW[x]; i++ {
			e.merit[x][i] *= float64(node.SW[i].Cycles)
		}
		if len(node.HW) > 0 {
			e.hwMerit(chosen, x)
		}
		aco.Normalize(e.merit[x], 100*float64(len(e.merit[x])))
	}
}

// addGroupMembers unions iteration group g into the virtual-subgraph arena.
func (e *explorer) addGroupMembers(g int) {
	for _, v := range e.groupNodes[e.groupStart[g]:e.groupStart[g+1]] {
		e.vsSet.Add(v)
	}
}

func (e *explorer) hwMerit(chosen []int, x int) {
	d := e.d
	p := e.p
	hw := d.Nodes[x].HW
	base := e.numSW[x]

	// vSx: x joined with its adjacent hardware group(s). Build order is
	// irrelevant — only membership is read.
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
	if g := e.groupOf[x]; g >= 0 {
		e.addGroupMembers(g)
	}
	vs := e.vsSet

	if vs.Len() == 1 {
		for j := range hw {
			e.merit[x][base+j] *= p.BetaSize
		}
		return
	}
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
	// Serial saving: the group replaces size(vS) one-cycle instructions.
	members := e.membersInTopoOrder(vs)
	minCycles, maxArea := 1<<30, 0.0
	e.hwCycles = growInts(e.hwCycles, len(hw))
	e.hwAreas = growFloats(e.hwAreas, len(hw))
	cyc, area := e.hwCycles, e.hwAreas
	for j := range hw {
		dly, a := e.vsMetrics(vs, members, chosen, x, j)
		cyc[j] = sched.CyclesForDelay(dly)
		area[j] = a
		if cyc[j] < minCycles {
			minCycles = cyc[j]
		}
		if a > maxArea {
			maxArea = a
		}
	}
	for j := range hw {
		m := &e.merit[x][base+j]
		if p.MaxISECycles > 0 && cyc[j] > p.MaxISECycles {
			*m *= p.BetaIO
			continue
		}
		saving := vs.Len() - cyc[j]
		switch {
		case saving > 0:
			*m *= float64(1 + saving)
		case saving < 0:
			*m /= float64(1 - saving)
		}
		if cyc[j] == minCycles {
			if area[j] > 0 {
				*m *= maxArea / area[j]
			}
		} else {
			*m /= float64(1 + cyc[j] - minCycles)
		}
	}
}

//alloc:free
func (e *explorer) convergedNow() bool {
	for x := 0; x < e.d.Len(); x++ {
		if e.inISE[x] || len(e.trail[x]) <= 1 {
			continue
		}
		share, _ := aco.MaxShare(e.optWeights(x))
		if share < e.p.PEnd {
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
		_, o := aco.MaxShare(e.optWeights(x))
		if o >= e.numSW[x] {
			taken.Add(x)
			optOf[x] = o - e.numSW[x]
		}
	}
	if taken.Empty() {
		return nil, curSerial
	}
	var parts []*core.ISE
	for _, comp := range d.G.ConnectedComponents(taken) {
		for _, convex := range core.MakeConvex(d, comp) {
			feasible := core.TrimPorts(d, convex, e.cfg.ReadPorts, e.cfg.WritePorts)
			feasible = core.TrimLatency(d, feasible, optOf, e.p.MaxISECycles)
			feasible = core.TrimPorts(d, feasible, e.cfg.ReadPorts, e.cfg.WritePorts)
			for _, part := range d.G.ConnectedComponents(feasible) {
				if part.Len() < 2 {
					continue
				}
				parts = append(parts, core.NewISE(d, part, optOf))
			}
		}
	}
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
// ISEs.
func (e *explorer) schedulable(ise *core.ISE, kern *sched.Scheduler) bool {
	ises := append(e.fixed[:len(e.fixed):len(e.fixed)], ise)
	_, err := kern.Schedule(e.d, core.BuildAssignment(e.d, ises), e.cfg)
	return err == nil
}
