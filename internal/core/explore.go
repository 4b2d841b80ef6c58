package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/aco"
	"repro/internal/dfg"
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
	// CappedRounds counts the Rounds that Params.MaxIterations ended before
	// every free operation reached P_END (DESIGN.md §7's convergence cap).
	CappedRounds int
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
	res, _, err := exploreResumable(ctx, d, cfg, p, nil, ResumeOptions{}, miKind)
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
	return exploreResumable(ctx, d, cfg, p, nil, opts, miKind)
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
	return exploreResumable(ctx, d, cfg, snap.Params, snap, opts, miKind)
}

// kind is what the restart driver needs of one explorer beyond its step:
// how to get the step from a worker's scratch, the restart seed stride, and
// the objective the best-of-restarts reduction minimizes before area.
type kind struct {
	step   func(*workerScratch) step
	stride int64
	key    func(d *dfg.DFG, r *Result) int
}

// miKind is the multiple-issue explorer of Chapter 4: restart r's seed is
// p.Seed + r*7919, and the best restart has the shortest final schedule.
var miKind = kind{
	step:   func(ws *workerScratch) step { return &ws.exp },
	stride: 7919,
	key:    func(_ *dfg.DFG, r *Result) int { return r.FinalCycles },
}

// exploreResumable is the restart driver both explorers run through (Explore
// with miKind, ExploreSI with siKind): it validates the inputs, schedules
// the base, fans the restarts out over the scratch pool's workers, resumes
// or checkpoints them, and reduces them to the best.
func exploreResumable(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params, snap *Snapshot, opts ResumeOptions, k kind) (*Result, *Snapshot, error) {
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
	scratch := opts.Scratch
	if scratch == nil {
		scratch = NewScratch()
	}
	// The base schedule borrows a pooled worker's kernel and its AllSoftware
	// buffer. It is untraced: runOnce detaches its tracer from the kernel
	// when the restart returns.
	bw := scratch.acquire()
	baseCycles, err := cache.ScheduleWith(bw.kern, d, bw.kern.AllSoftware(d.Len()), cfg)
	scratch.release(bw)
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
		res, part, err := runOnce(ctx, d, cfg, p, k, r, baseCycles, cache, ws[w], partials[r], opts.Trace, opts.Flight)
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
	// A cancellation that came after every restart finished cost nothing:
	// the result is whole, so it is reduced and returned like any other.
	if cancelErr != nil && slices.Contains(results, nil) {
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
			st := RestartState{Seed: p.Seed + int64(r)*k.stride}
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
	best := bestBy(results, d, k.key)
	best.Assignment = BuildAssignment(d, best.ISEs)
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
func BestResult(results []*Result) *Result { return bestBy(results, nil, miKind.key) }

// bestBy is BestResult with key(d, result) in place of FinalCycles.
func bestBy(results []*Result, d *dfg.DFG, key func(*dfg.DFG, *Result) int) *Result {
	var best *Result
	for _, res := range results {
		if res == nil {
			continue
		}
		if best == nil || key(d, res) < key(d, best) ||
			(key(d, res) == key(d, best) && res.AreaUM2() < best.AreaUM2()) {
			best = res
		}
	}
	return best
}

// runState is the restart state the driver owns and every explorer's step
// reads: the inputs, the counted RNG, the kernel and cache, the trail and
// merit tables it seeds each round, and the accepted ISEs with their
// membership. Each explorer embeds one and reuses it across restarts.
type runState struct {
	d   *dfg.DFG
	cfg machine.Config
	p   Params
	rng *rand.Rand
	// rngSrc counts rng's draws so a checkpoint can record the stream
	// position and a resumed restart can skip back to it (see
	// aco.CountingSource).
	rngSrc *aco.CountingSource
	// cache memoizes schedule evaluations; may be nil (NoEvalCache).
	cache *EvalCache
	// kern is this worker's reusable scheduling kernel; restarts sharing a
	// worker share one. Pure scratch — never affects results.
	kern *sched.Scheduler
	// tr records observation-only spans on track tid; nil when tracing is
	// off (the common case — a nil tracer's methods are free).
	tr  *obs.Tracer
	tid int

	// fixed are ISEs accepted in earlier rounds; their members no longer
	// make choices.
	fixed        []*ISE
	fixedGroupOf []int // node -> index into fixed, or -1

	// tab holds the trail and merit option tables of the free nodes,
	// software options first; runOnce re-seeds them each round.
	tab aco.Tables
	cs  convergeState // the current round's convergence loop, reset each round

	io         dfg.IOScratch    // IN/OUT counting without dfg.In/Out's per-call map
	sh         shaper           // the round's candidates, shaped in place (takenCandidates)
	evalAssign sched.Assignment // arena: a candidate's assignment, valid until the next build
}

// reset rebinds the state to one restart's inputs, keeping warmed arenas.
func (s *runState) reset(d *dfg.DFG, cfg machine.Config, p Params, rng *rand.Rand, rngSrc *aco.CountingSource, cache *EvalCache, kern *sched.Scheduler, tr *obs.Tracer, tid int) {
	s.d, s.cfg, s.p = d, cfg, p
	s.rng, s.rngSrc = rng, rngSrc
	s.cache, s.kern = cache, kern
	s.tr, s.tid = tr, tid
	s.fixed = s.fixed[:0]
	s.fixedGroupOf = grow(s.fixedGroupOf, d.Len())
	for i := range s.fixedGroupOf {
		s.fixedGroupOf[i] = -1
	}
}

// fix accepts ise: its members stop making choices.
func (s *runState) fix(ise *ISE) {
	for v := ise.Nodes.Next(0); v >= 0; v = ise.Nodes.Next(v + 1) {
		s.fixedGroupOf[v] = len(s.fixed)
	}
	s.fixed = append(s.fixed, ise)
}

// isHWOption reports whether option index o of node x selects hardware.
func (s *runState) isHWOption(x, o int) bool { return o >= s.tab.NumSW[x] }

// step is one explorer's part of an ACO restart. The driver (runOnce,
// converge, iterate) owns rounds, iterations, the improved gate, the stop
// test and the accepted ISEs; a step constructs and scores solutions.
type step interface {
	// state returns the explorer's embedded restart state.
	state() *runState
	// bind initializes the explorer's own restart-scoped state after the
	// driver's reset.
	bind()
	// construct builds one solution from the tables and returns its
	// execution time (tet).
	construct() int
	// update applies the trail and merit updates for the last solution.
	update(improved bool)
	// bestCandidate shapes the round's candidates in the run state's
	// shaper and returns the index of the one to accept under the
	// explorer's objective cur, with the objective after accepting it; the
	// index is -1 when none qualifies.
	bestCandidate(cur int) (i, objective int)
}

// runOnce performs one full exploration: rounds of ACO iterations, each
// producing at most one accepted ISE, until no further ISE improves the
// explorer's objective. When ctx cancels the run between convergence
// iterations, it returns a RestartPartial checkpoint instead of a Result;
// when resume is non-nil, the restart first restores that checkpoint
// (accepted ISEs, trail/merit tables, RNG position) and continues as if it
// had never stopped.
func runOnce(ctx context.Context, d *dfg.DFG, cfg machine.Config, p Params, k kind, restart, baseCycles int, cache *EvalCache, ws *workerScratch, resume *RestartPartial, tr *obs.Tracer, fl *obs.Flight) (*Result, *RestartPartial, error) {
	tid := restart + 1
	if tr.Enabled() {
		tr.NameTrack(tid, fmt.Sprintf("restart %d", restart))
	}
	ws.kern.SetTrace(tr, tid)
	// A pooled kernel must not keep this restart's tracer alive, or record
	// into it, once the restart returns.
	defer ws.kern.SetTrace(nil, 0)
	restartSpan := tr.Begin("restart", tid).Arg("restart", int64(restart))
	defer restartSpan.End()
	rng, rngSrc := ws.seededRand(p.Seed + int64(restart)*k.stride)
	st := k.step(ws)
	e := st.state()
	e.reset(d, cfg, p, rng, rngSrc, cache, ws.kern, tr, tid)
	st.bind()

	res := &Result{BaseCycles: baseCycles, FinalCycles: baseCycles}
	cur := k.key(d, res)
	startRound := 0
	if resume != nil {
		fixed, err := isesFromStates(d, resume.Fixed)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range fixed {
			e.fix(f)
		}
		e.rngSrc.Skip(resume.RNGDraws)
		res.Rounds = resume.Rounds
		res.CappedRounds = resume.CappedRounds
		res.Iterations = resume.Iterations
		cur = resume.CurLen
		startRound = resume.Round
	}
	for round := startRound; round < p.MaxRounds; round++ {
		roundSpan := tr.Begin("round", tid).Arg("round", int64(round))
		if e.tab.Seed(d, p.Coefs()) {
			obsExploreArenaGrows.Inc()
		}
		// The previous-order buffer keeps its backing array across rounds.
		// It is empty until the round's first update, so ρ5's moved-earlier
		// gate is off on the round's first iteration.
		e.cs = convergeState{tetOld: 1 << 30, prevOrder: e.cs.prevOrder[:0]}
		cs := &e.cs
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
			cs.prevOrder = append(cs.prevOrder, resume.PrevOrder...)
		}
		before := cs.iter
		end := converge(ctx, st)
		res.Iterations += cs.iter - before
		if end == roundCancelled {
			roundSpan.End()
			return nil, e.capture(round, res, cur), nil
		}
		res.Rounds++
		if end == roundCapped {
			res.CappedRounds++
		}

		i, next := st.bestCandidate(cur)
		roundSpan.Arg("iters", int64(cs.iter)).End()
		if i >= 0 {
			ise := e.sh.materialize(i)
			ise.SavingCycles = cur - next
			e.fix(ise)
			cur = next
		}
		// Convergence sample: the objective after this round and the
		// accepted-ISE count. Pure function of the exploration inputs, so a
		// resumed run re-records identical samples for replayed rounds.
		fl.Record(obs.FlightRound, restart, round, float64(cur), float64(len(e.fixed)))
		if i < 0 {
			break
		}
	}

	// The final schedule's assignment is arena scratch: only the restart
	// exploreResumable keeps gets a Result.Assignment of its own.
	res.ISEs = append(res.ISEs, e.fixed...)
	e.evalAssign = BuildAssignmentWith(e.evalAssign, d, res.ISEs)
	final, err := cache.ScheduleWith(ws.kern, d, e.evalAssign, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: final schedule of %s: %w", d.Name, err)
	}
	res.FinalCycles = final
	return res, nil, nil
}

// capture freezes the restart's state at a convergence-iteration boundary.
// At a round boundary (no iteration run yet) the trail and merit tables are
// omitted: the round's Seed rebuilds them deterministically on resume.
func (s *runState) capture(round int, res *Result, cur int) *RestartPartial {
	cs := &s.cs
	p := &RestartPartial{
		Round:        round,
		Iter:         cs.iter,
		Rounds:       res.Rounds,
		CappedRounds: res.CappedRounds,
		Iterations:   res.Iterations,
		CurLen:       cur,
		Fixed:        iseStates(s.fixed),
		RNGDraws:     s.rngSrc.Draws(),
	}
	if cs.iter > 0 {
		p.Trail = copyTables(s.tab.Trail)
		p.Merit = copyTables(s.tab.Merit)
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
// loop, held in the run state so an interrupted round checkpoints exactly
// where it stopped: the best execution time seen (tetOld), the previous
// iteration's scheduling order (MI's Rho5 moved-earlier signal, read from
// the round's second iteration on; SI keeps none), and the number of
// iterations performed so far this round.
type convergeState struct {
	tetOld    int
	prevOrder []int
	iter      int
}

// roundEnd says how a round's convergence loop stopped.
type roundEnd int

const (
	// roundCancelled: ctx was done before an iteration; the run state's cs
	// holds everything a resumed run needs.
	roundCancelled roundEnd = iota
	// roundConverged: every free operation reached P_END.
	roundConverged
	// roundCapped: Params.MaxIterations iterations ran without reaching it.
	roundCapped
)

// converge runs ACO iterations until every free operation has one option
// whose selected probability exceeds P_END, or the iteration cap is hit,
// and says which. The context is checked before each iteration.
func converge(ctx context.Context, st step) roundEnd {
	e := st.state()
	for e.cs.iter < e.p.MaxIterations {
		if ctx.Err() != nil {
			return roundCancelled
		}
		iterate(st)
		if e.convergedNow() {
			return roundConverged
		}
	}
	return roundCapped
}

// iterate runs one ACO iteration of st: construct a solution, then update
// the trail (improved when the solution is no slower than the round's best
// so far) and the merit tables.
//
//alloc:free
func iterate(st step) {
	e := st.state()
	cs := &e.cs
	cs.iter++
	walkSpan := e.tr.Begin("walk", e.tid).Arg("iter", int64(cs.iter))
	tet := st.construct()
	walkSpan.Arg("tet", int64(tet)).End()
	improved := tet <= cs.tetOld
	trailSpan := e.tr.Begin("trail", e.tid)
	st.update(improved)
	if improved {
		cs.tetOld = tet
	}
	trailSpan.End()
}

// convergedNow checks the P_END condition of Eq. 3/4 over all free nodes.
//
//alloc:free
func (s *runState) convergedNow() bool {
	for x := 0; x < s.d.Len(); x++ {
		if s.fixedGroupOf[x] < 0 && !s.tab.Converged(x) {
			return false
		}
	}
	return true
}

// takenCandidates shapes the converged selection — the free eligible nodes
// whose taken option is hardware — into ISE candidates in the shaper's
// arena (connected components, made convex and port-feasible).
//
//alloc:free
func (s *runState) takenCandidates() {
	d := s.d
	sh := &s.sh
	sh.taken.Reset(d.Len())
	sh.optOf = grow(sh.optOf, d.Len())
	for x := 0; x < d.Len(); x++ {
		if s.fixedGroupOf[x] >= 0 || !d.Nodes[x].ISEEligible() {
			continue
		}
		if o := s.tab.Taken(x); s.isHWOption(x, o) {
			sh.taken.Add(x)
			sh.optOf[x] = o - s.tab.NumSW[x]
		}
	}
	sh.shape(d, s.cfg, s.p.MaxISECycles, &s.io)
}

// candidateAssignment builds, in the evalAssign arena, the assignment of
// the accepted ISEs plus candidate i as the last group. It is valid until
// the next build.
func (s *runState) candidateAssignment(i int) sched.Assignment {
	a := BuildAssignmentWith(s.evalAssign, s.d, s.fixed)
	c := &s.sh.cands[i]
	for v := c.nodes.Next(0); v >= 0; v = c.nodes.Next(v + 1) {
		a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: s.sh.optOf[v], Group: len(s.fixed)}
	}
	s.evalAssign = a
	return a
}

// bestCandidate evaluates each candidate of the converged selection by
// rescheduling the DFG with the already-accepted ISEs plus the candidate,
// and returns the one with the shortest schedule (area breaks ties, then
// the earlier candidate) with that length. Candidates that would lengthen
// the schedule are invalid; equal-length candidates remain acceptable so
// later selection stages can still harvest their cross-block reuse.
func (e *explorer) bestCandidate(curLen int) (int, int) {
	e.takenCandidates()
	cands := e.sh.cands
	best, bestLen := -1, 0
	for i := range cands {
		cyc, err := e.evaluate(i)
		if err != nil || cyc > curLen {
			continue
		}
		if best < 0 || cyc < bestLen ||
			(cyc == bestLen && cands[i].areaUM2 < cands[best].areaUM2) {
			best, bestLen = i, cyc
		}
	}
	return best, bestLen
}

// evaluate schedules the DFG with the accepted ISEs plus candidate i and
// returns the resulting length. Evaluations go through the memo cache: across
// iterations and restarts the same accepted-prefix-plus-candidate
// assignment recurs constantly, and the canonical key makes those replays
// free. Misses schedule from scratch on the explorer's own kernel, whose
// arena makes them allocation-free; the kernel keeps nothing else between
// calls.
func (e *explorer) evaluate(i int) (int, error) {
	sp := e.tr.Begin("evaluate", e.tid).Arg("nodes", int64(e.sh.cands[i].nodes.Len()))
	n, err := e.cache.ScheduleWith(e.kern, e.d, e.candidateAssignment(i), e.cfg)
	sp.Arg("cycles", int64(n)).End()
	return n, err
}
