package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// Result is the outcome of exploring one DFG.
type Result struct {
	// ISEs are the accepted extensions in acceptance order.
	ISEs []*ISE
	// Assignment realizes the ISEs for the scheduler (remaining nodes
	// software).
	Assignment sched.Assignment
	// BaseCycles is the all-software schedule length; FinalCycles the length
	// with every accepted ISE deployed.
	BaseCycles, FinalCycles int
	// Rounds and Iterations count algorithm work for reporting.
	Rounds, Iterations int
	// CacheHits and CacheMisses report the schedule-evaluation cache
	// traffic of the whole exploration (all restarts), exactly (see
	// EvalCache.Stats). With a caller-supplied cache (ResumeOptions.Cache)
	// they are that cache's cumulative counters, so they include the traffic
	// of every other exploration sharing it. They are observability
	// counters, excluded from the determinism contract that covers ISEs,
	// Assignment and cycle counts.
	CacheHits, CacheMisses uint64
}

// AreaUM2 returns the total silicon area of the accepted ISEs.
func (r *Result) AreaUM2() float64 {
	total := 0.0
	for _, e := range r.ISEs {
		total += e.AreaUM2
	}
	return total
}

// Reduction returns the relative execution-time reduction of this DFG.
func (r *Result) Reduction() float64 {
	if r.BaseCycles == 0 {
		return 0
	}
	return float64(r.BaseCycles-r.FinalCycles) / float64(r.BaseCycles)
}

// Explore runs the multiple-issue ISE exploration of Chapter 4 on one DFG.
// The whole procedure is repeated p.Restarts times and the best result
// (shortest final schedule, then least area) is returned, matching §5.1.
// Restarts fan out across a bounded worker pool of p.Workers goroutines and
// share a private schedule-evaluation cache unless p.NoEvalCache is set;
// ExploreResumable takes a caller-supplied cache, scratch pool, tracer or
// progress callback.
//
// Determinism: every restart r derives its own seed (p.Seed + r*7919), runs
// independently, and writes into a per-restart slot; the reduction then
// picks the best result by (FinalCycles, area, restart index) in a strict
// left-to-right scan. Parallel and sequential runs therefore return
// identical ISEs, assignments and cycle counts for any worker count, with
// or without the cache — only the CacheHits/CacheMisses observability
// counters may differ.
//
// Cancellation is cooperative: the context is checked between restarts (no
// new restart starts once ctx is done) and between convergence iterations
// inside each restart, so cancellation latency is one ACO iteration, not one
// exploration. On cancellation the context's error is returned; callers that
// want to resume later use ExploreResumable/ResumeFrom instead, which
// additionally return a checkpoint.
func Explore(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params) (*Result, error) {
	res, _, err := exploreResumable(ctx, d, cfg, p, nil, ResumeOptions{})
	return res, err
}

// ResumeOptions parameterize ExploreResumable and ResumeFrom.
type ResumeOptions struct {
	// Cache is the shared schedule-evaluation cache; nil allocates a
	// private one unless Params.NoEvalCache is set.
	Cache *EvalCache
	// OnRestartDone, when non-nil, is called once per restart as it
	// finishes — the service layer's restart-level progress stream. It may
	// be called concurrently from several worker goroutines and must be
	// safe for that; it must not block for long (it runs on the exploration
	// workers). Events are observability only and are excluded from the
	// determinism contract (their order is timing-dependent).
	OnRestartDone func(RestartEvent)
	// Trace, when non-nil, records spans over the exploration phases —
	// restart, round, ant walk, trail update, candidate evaluation — on
	// track restart+1 (track 0 is left to the caller). Tracing is
	// observation-only: results are byte-identical with Trace set or nil
	// (asserted by TestTracingDeterminism).
	Trace *obs.Tracer
	// Scratch, when non-nil, supplies the per-worker scheduling kernels and
	// explorer arenas from a pool shared across explorations, so a run over
	// many blocks pays arena warmup once per worker instead of once per
	// (worker, block). Nil uses a private pool (per-exploration reuse only).
	// Scratch is pure scratch: results are byte-identical with or without
	// it, at any worker count (TestExploreSharedScratchDeterminism).
	Scratch *Scratch
	// Flight, when non-nil, is the convergence flight recorder: the loop
	// records one obs.FlightRound sample per converged round (best
	// schedule length so far) plus one obs.FlightCache sample per
	// finished restart (the eval cache's hit rate and lookups so far).
	// Like Trace it is observation-only — the
	// engine writes samples and never reads them back (enforced by
	// iselint's obspurity pass), results are byte-identical with Flight
	// set or nil, and a nil recorder costs nothing on the hot path
	// (TestExploreSteadyStateAllocs covers the instrumented loop). An
	// interrupted run carries the journal in the snapshot's observational
	// sidecar (Snapshot.Flight) and ResumeFrom restores it, so the round
	// series survives checkpoint/resume.
	Flight *obs.Flight
}

// RestartEvent reports one finished restart.
type RestartEvent struct {
	// Restart is the finished restart's index; Completed counts restarts
	// finished so far (including ones restored from a snapshot) out of
	// Total.
	Restart   int
	Completed int
	Total     int
	// FinalCycles and ISECount summarize the restart's own result.
	FinalCycles int
	ISECount    int
	// Rounds and Iterations are the finished restart's own algorithm-work
	// counters (Result.Rounds / Result.Iterations for that restart), letting
	// progress consumers render work done without polling.
	Rounds     int
	Iterations int
	// CacheHits and CacheMisses are the shared cache's cumulative counters
	// at the time of the event.
	CacheHits, CacheMisses uint64
}

// ExploreResumable is Explore for callers that share a cache or scratch
// pool, observe progress, or checkpoint: when ctx cancels the run, it
// returns a Snapshot (alongside ctx's error) from which ResumeFrom finishes
// the exploration with the byte-identical Result an uninterrupted run would
// have produced — same ISEs, assignment and cycle counts; only the cache
// counters may differ (see DESIGN.md §11). On normal completion the
// snapshot is nil.
func ExploreResumable(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params, opts ResumeOptions) (*Result, *Snapshot, error) {
	return exploreResumable(ctx, d, cfg, p, nil, opts)
}

// ResumeFrom continues an exploration from a snapshot captured by
// ExploreResumable (or an earlier ResumeFrom — interrupting a resumed run
// yields another snapshot; any chain of interruptions converges to the same
// Result). The snapshot must belong to (d, cfg); its embedded Params drive
// the run.
func ResumeFrom(ctx context.Context, d *dfg.DFG, cfg machine.Config, snap *Snapshot, opts ResumeOptions) (*Result, *Snapshot, error) {
	if snap == nil {
		return nil, nil, fmt.Errorf("core: ResumeFrom with nil snapshot")
	}
	if err := snap.validate(d, cfg); err != nil {
		return nil, nil, err
	}
	return exploreResumable(ctx, d, cfg, snap.Params, snap, opts)
}

func exploreResumable(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params, snap *Snapshot, opts ResumeOptions) (*Result, *Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if d.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty DFG %s", d.Name)
	}
	cache := opts.Cache
	if p.NoEvalCache {
		cache = nil
	} else if cache == nil {
		cache = NewEvalCache()
	}
	baseCycles, err := cache.Schedule(d, sched.AllSoftware(d.Len()), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: base schedule of %s: %w", d.Name, err)
	}
	restarts := p.Restarts
	if restarts < 1 {
		restarts = 1
	}
	results := make([]*Result, restarts)
	partials := make([]*RestartPartial, restarts)
	if snap != nil {
		// The journal sidecar rides the snapshot so the convergence series
		// survives interruption; replayed rounds re-record identical
		// samples and Series() canonicalization collapses them. Merged, not
		// restored: the caller's recorder may already hold earlier blocks'
		// samples (the service resumes a multi-block job into one journal).
		if len(snap.Flight) > 0 {
			opts.Flight.Merge(snap.Flight)
		}
		if snap.BaseCycles != baseCycles {
			return nil, nil, fmt.Errorf("core: snapshot base cycles %d, but %s schedules to %d — stale checkpoint",
				snap.BaseCycles, d.Name, baseCycles)
		}
		for r, st := range snap.Restarts {
			if st.Done != nil {
				results[r], err = resultFromState(d, st.Done)
				if err != nil {
					return nil, nil, err
				}
			}
			partials[r] = st.Partial
		}
	}
	// Work list: every restart without a final result, in restart order.
	var todo []int
	for r := 0; r < restarts; r++ {
		if results[r] == nil {
			todo = append(todo, r)
		}
	}
	var completed atomic.Int64
	completed.Store(int64(restarts - len(todo)))
	errs := make([]error, restarts)
	// One scheduling kernel and one explorer per worker: restarts running on
	// the same worker reuse the kernel's arena and the explorer's scratch
	// (unit contraction, walk buffers, merit sweeps), so steady-state ant
	// construction allocates nothing. Both are pure scratch — which worker
	// runs which restart never affects the restart's result — so determinism
	// is preserved. The pairs come from the caller's Scratch pool when one is
	// supplied, so arenas warmed on an earlier block of the same run stay
	// warm here (cross-block reuse, DESIGN.md §13); otherwise a private pool
	// scopes the reuse to this exploration.
	scratch := opts.Scratch
	if scratch == nil {
		scratch = NewScratch()
	}
	ws := make([]*workerScratch, parallel.Degree(p.Workers, len(todo)))
	for i := range ws {
		ws[i] = scratch.acquire()
	}
	defer func() {
		for _, w := range ws {
			scratch.release(w)
		}
	}()
	cancelErr := parallel.ForEachWorkerCtx(ctx, len(todo), p.Workers, func(w, ti int) {
		r := todo[ti]
		res, part, err := runOnce(ctx, d, cfg, p, p.Seed+int64(r)*7919, baseCycles, cache, ws[w].kern, ws[w].exp, partials[r], opts.Trace, opts.Flight, r)
		switch {
		case err != nil:
			errs[r] = err
		case part != nil:
			partials[r] = part
		default:
			results[r] = res
			partials[r] = nil
			if opts.Flight.Enabled() {
				hits, misses := cache.Stats()
				rate := 0.0
				if total := hits + misses; total > 0 {
					rate = float64(hits) / float64(total)
				}
				opts.Flight.Record(obs.FlightCache, r, res.Rounds, rate, float64(hits+misses))
			}
			if opts.OnRestartDone != nil {
				hits, misses := cache.Stats()
				opts.OnRestartDone(RestartEvent{
					Restart:     r,
					Completed:   int(completed.Add(1)),
					Total:       restarts,
					FinalCycles: res.FinalCycles,
					ISECount:    len(res.ISEs),
					Rounds:      res.Rounds,
					Iterations:  res.Iterations,
					CacheHits:   hits,
					CacheMisses: misses,
				})
			}
		}
	})
	for r := 0; r < restarts; r++ {
		if errs[r] != nil {
			return nil, nil, errs[r]
		}
	}
	if cancelErr != nil {
		out := &Snapshot{
			Version:    SnapshotVersion,
			DFG:        d.Name,
			Nodes:      d.Len(),
			Machine:    cfg.Name,
			Params:     p,
			BaseCycles: baseCycles,
			Restarts:   make([]RestartState, restarts),
		}
		for r := 0; r < restarts; r++ {
			st := RestartState{Seed: p.Seed + int64(r)*7919}
			if results[r] != nil {
				st.Done = resultState(results[r])
			} else {
				st.Partial = partials[r]
			}
			out.Restarts[r] = st
		}
		out.Flight = opts.Flight.Series()
		return nil, out, cancelErr
	}
	best := BestResult(results)
	best.CacheHits, best.CacheMisses = cache.Stats()
	return best, nil, nil
}

// BestResult is the deterministic reduction over per-restart results: a
// strict left-to-right scan keeping the result with the fewest FinalCycles,
// breaking ties by least area and then by earliest index (the strict `<`
// comparisons encode the index tiebreak). Nil entries are skipped.
//
// Because every comparison is strict, the scan is associative over
// contiguous segments: folding each contiguous restart range first and then
// folding the per-range winners in range order selects the same element as
// one global scan. That is the property the distributed coordinator
// (internal/cluster) relies on — each shard owns a contiguous restart range,
// reduces it with this same function (via exploreResumable on the worker),
// and the coordinator folds the shard winners in shard order, so node count
// never changes the answer.
func BestResult(results []*Result) *Result {
	var best *Result
	for _, res := range results {
		if res == nil {
			continue
		}
		if best == nil ||
			res.FinalCycles < best.FinalCycles ||
			(res.FinalCycles == best.FinalCycles && res.AreaUM2() < best.AreaUM2()) {
			best = res
		}
	}
	return best
}

// runOnce performs one full exploration: rounds of ACO iterations, each
// producing at most one accepted ISE, until no further ISE improves the
// schedule. When ctx cancels the run between convergence iterations, it
// returns a RestartPartial checkpoint instead of a Result; when resume is
// non-nil, the restart first restores that checkpoint (accepted ISEs,
// trail/merit tables, RNG position) and continues as if it had never
// stopped.
func runOnce(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params, seed int64, baseCycles int, cache *EvalCache, kern *sched.Scheduler, exp *explorer, resume *RestartPartial, tr *obs.Tracer, fl *obs.Flight, restart int) (*Result, *RestartPartial, error) {
	if kern == nil {
		kern = sched.NewScheduler()
	}
	if exp == nil {
		exp = &explorer{}
	}
	tid := restart + 1
	if tr.Enabled() {
		tr.NameTrack(tid, fmt.Sprintf("restart %d", restart))
	}
	kern.SetTrace(tr, tid)
	restartSpan := tr.Begin("restart", tid).Arg("restart", int64(restart))
	defer restartSpan.End()
	rng, rngSrc := aco.NewCountedRand(seed)
	e := exp
	e.reset(d, cfg, p, rng, rngSrc, cache, kern, tr, tid)

	res := &Result{BaseCycles: baseCycles, FinalCycles: baseCycles}
	curLen := baseCycles
	startRound := 0
	if resume != nil {
		fixed, err := isesFromStates(d, resume.Fixed)
		if err != nil {
			return nil, nil, err
		}
		e.fixed = fixed
		for g, f := range e.fixed {
			for _, v := range f.Nodes.Values() {
				e.fixedGroupOf[v] = g
			}
		}
		e.rngSrc.Skip(resume.RNGDraws)
		res.Rounds = resume.Rounds
		res.Iterations = resume.Iterations
		curLen = resume.CurLen
		startRound = resume.Round
	}
	for round := startRound; round < p.MaxRounds; round++ {
		roundSpan := e.tr.Begin("round", e.tid).Arg("round", int64(round))
		if e.tab.Seed(e.d, e.p.Coefs()) {
			obsExploreArenaGrows.Inc()
		}
		cs := &convergeState{tetOld: 1 << 30}
		if resume != nil && round == startRound && resume.Iter > 0 {
			// Mid-round checkpoint: overwrite the fresh tables with the
			// snapshotted ones and rejoin the convergence loop where it
			// stopped.
			if err := restoreTables(e.tab.Trail, resume.Trail); err != nil {
				roundSpan.End()
				return nil, nil, err
			}
			if err := restoreTables(e.tab.Merit, resume.Merit); err != nil {
				roundSpan.End()
				return nil, nil, err
			}
			cs.iter = resume.Iter
			cs.tetOld = resume.TetOld
			cs.prevOrder = append([]int(nil), resume.PrevOrder...)
		}
		before := cs.iter
		converged := e.converge(ctx, cs)
		res.Iterations += cs.iter - before
		obsIterations.Add(float64(cs.iter - before))
		if !converged {
			roundSpan.End()
			return nil, e.capture(round, cs, res, curLen), nil
		}
		res.Rounds++
		obsRounds.Inc()

		cand := e.bestCandidate(curLen)
		roundSpan.Arg("iters", int64(cs.iter)).End()
		if cand != nil {
			cand.ise.SavingCycles = curLen - cand.cycles
			e.fixed = append(e.fixed, cand.ise)
			for _, v := range cand.ise.Nodes.Values() {
				e.fixedGroupOf[v] = len(e.fixed) - 1
			}
			curLen = cand.cycles
		}
		// Convergence sample: best schedule length after this round and the
		// accepted-ISE count. Pure function of the exploration inputs, so a
		// resumed run re-records identical samples for replayed rounds.
		fl.Record(obs.FlightRound, restart, round, float64(curLen), float64(len(e.fixed)))
		if cand == nil {
			break
		}
	}

	res.ISEs = append(res.ISEs, e.fixed...)
	res.Assignment = BuildAssignment(d, res.ISEs)
	final, err := cache.ScheduleWith(e.kern, d, res.Assignment, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: final schedule of %s: %w", d.Name, err)
	}
	res.FinalCycles = final
	return res, nil, nil
}

// capture freezes the restart's state at a convergence-iteration boundary.
// At a round boundary (no iteration run yet) the trail and merit tables are
// omitted: the round's Seed rebuilds them deterministically on resume.
func (e *explorer) capture(round int, cs *convergeState, res *Result, curLen int) *RestartPartial {
	p := &RestartPartial{
		Round:      round,
		Iter:       cs.iter,
		Rounds:     res.Rounds,
		Iterations: res.Iterations,
		CurLen:     curLen,
		Fixed:      iseStates(e.fixed),
		RNGDraws:   e.rngSrc.Draws(),
	}
	if cs.iter > 0 {
		p.Trail = copyTables(e.tab.Trail)
		p.Merit = copyTables(e.tab.Merit)
		p.TetOld = cs.tetOld
		p.PrevOrder = append([]int(nil), cs.prevOrder...)
	}
	return p
}

// initPriority fills the scheduling-priority vector per Params.Priority.
func (e *explorer) initPriority() {
	d := e.d
	n := d.Len()
	switch e.p.Priority {
	case PriorityChildren:
		for i := 0; i < n; i++ {
			e.sp[i] = float64(d.G.OutDegree(i))
		}
	case PriorityHeight, PriorityMobility:
		order := d.Topo()
		down := make([]int, n)
		up := make([]int, n)
		for _, v := range order {
			in := 0
			for _, p := range d.G.Preds(v) {
				if down[p] > in {
					in = down[p]
				}
			}
			down[v] = in + 1
		}
		for i := n - 1; i >= 0; i-- {
			v := order[i]
			out := 0
			for _, s := range d.G.Succs(v) {
				if up[s] > out {
					out = up[s]
				}
			}
			up[v] = out + 1
		}
		for v := 0; v < n; v++ {
			if e.p.Priority == PriorityHeight {
				e.sp[v] = float64(up[v])
			} else {
				// Inverse mobility: the longest path through v. Critical
				// nodes (zero slack) score the full path length best; every
				// other node falls off by exactly its mobility.
				e.sp[v] = float64(down[v] + up[v] - 1)
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown priority %d", e.p.Priority))
	}
}

// convergeState is the inter-iteration state of one round's convergence
// loop, held outside converge so an interrupted round checkpoints exactly
// where it stopped: the best execution time seen (tetOld), the previous
// iteration's scheduling order (the Rho5 moved-earlier signal), and the
// number of iterations performed so far this round.
type convergeState struct {
	tetOld    int
	prevOrder []int
	iter      int
}

// converge runs ACO iterations until every free operation has one option
// whose selected probability exceeds P_END, or the iteration cap is hit.
// The context is checked before each iteration; converge returns false if
// cancellation interrupted the round (cs then holds everything a resumed
// run needs) and true once the round has converged or hit the cap.
func (e *explorer) converge(ctx context.Context, cs *convergeState) bool {
	for cs.iter < e.p.MaxIterations {
		if ctx.Err() != nil {
			return false
		}
		cs.iter++
		walkSpan := e.tr.Begin("walk", e.tid).Arg("iter", int64(cs.iter))
		res := e.walk()
		walkSpan.Arg("tet", int64(res.tet)).End()
		improved := res.tet <= cs.tetOld
		trailSpan := e.tr.Begin("trail", e.tid)
		e.trailUpdate(res, improved, cs.prevOrder)
		if improved {
			cs.tetOld = res.tet
		}
		e.meritUpdate(res)
		trailSpan.End()
		// res.orderPos is walk's arena; copy it into the round-local buffer
		// (reused across iterations, nil only before the first one — the
		// trailUpdate moved-earlier gate keys on that).
		cs.prevOrder = append(cs.prevOrder[:0], res.orderPos...)
		if e.convergedNow() {
			return true
		}
	}
	return true
}

// convergedNow checks the P_END condition of Eq. 3/4 over all free nodes.
func (e *explorer) convergedNow() bool {
	for x := 0; x < e.d.Len(); x++ {
		if e.fixedGroupOf[x] < 0 && !e.tab.Converged(x) {
			return false
		}
	}
	return true
}

type candidate struct {
	ise    *ISE
	cycles int
}

// bestCandidate extracts ISE candidates from the converged selection
// (connected hardware-taken components, made convex and port-feasible),
// evaluates each by rescheduling the DFG with the already-accepted ISEs plus
// the candidate, and returns the one with the shortest schedule (area breaks
// ties). Candidates that would lengthen the schedule are invalid; equal-
// length candidates remain acceptable so later selection stages can still
// harvest their cross-block reuse.
func (e *explorer) bestCandidate(curLen int) *candidate {
	d := e.d
	taken := graph.NewNodeSet(d.Len())
	optOf := map[int]int{}
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 || !d.Nodes[x].ISEEligible() {
			continue
		}
		if o := e.tab.Taken(x); e.isHWOption(x, o) {
			taken.Add(x)
			optOf[x] = o - e.tab.NumSW[x]
		}
	}
	e.cands = Candidates(e.cands[:0], d, taken, optOf, e.cfg, e.p.MaxISECycles, &e.io)
	var best *candidate
	for _, ise := range e.cands {
		cyc, err := e.evaluate(ise)
		if err != nil || cyc > curLen {
			continue
		}
		if best == nil || cyc < best.cycles ||
			(cyc == best.cycles && ise.AreaUM2 < best.ise.AreaUM2) {
			best = &candidate{ise: ise, cycles: cyc}
		}
	}
	return best
}

// evaluate schedules the DFG with the accepted ISEs plus cand and returns
// the resulting length. Evaluations go through the memo cache: across
// iterations and restarts the same accepted-prefix-plus-candidate
// assignment recurs constantly, and the canonical key makes those replays
// free. Misses run on the explorer's own kernel, whose arena and
// accepted-prefix contraction reuse make the back-to-back candidate
// evaluations of one round cheap: every candidate shares the kernel's
// previous call's leading groups (the accepted ISEs), so only the candidate
// group is validated and measured from scratch.
func (e *explorer) evaluate(cand *ISE) (int, error) {
	sp := e.tr.Begin("evaluate", e.tid).Arg("nodes", int64(cand.Nodes.Len()))
	e.evalAssign = BuildAssignmentWith(e.evalAssign, e.d, e.fixed, cand)
	n, err := e.cache.ScheduleWith(e.kern, e.d, e.evalAssign, e.cfg)
	sp.Arg("cycles", int64(n)).End()
	return n, err
}
