// Package flow drives the complete ISE design flow of Fig. 3.1.1:
// application profiling → basic-block selection → ISE exploration (the
// proposed multiple-issue algorithm or the single-issue baseline) → ISE
// merging → ISE selection with hardware sharing → ISE replacement and final
// instruction scheduling. Its output is the whole-program execution time
// with and without the customized instructions.
package flow

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/merging"
	"repro/internal/parallel"
	"repro/internal/replace"
	"repro/internal/sched"
	"repro/internal/selection"
)

// Algorithm names the exploration algorithm to use.
type Algorithm string

// The two competing exploration algorithms of the evaluation.
const (
	// MI is the proposed multiple-issue-aware exploration (internal/core).
	MI Algorithm = "MI"
	// SI is the legality-only single-issue baseline of Wu et al. [8].
	SI Algorithm = "SI"
)

// Options configure a design-flow run.
type Options struct {
	Machine   machine.Config
	Params    core.Params
	Algorithm Algorithm
	// HotBlocks is how many of the hottest basic blocks are explored
	// (basic-block selection). Default 3.
	HotBlocks int
}

// Pool is the result of the profile + exploration stages for one benchmark
// on one machine: everything the constraint-dependent stages need. Building
// a Pool is expensive; evaluating it under different selection constraints
// is cheap, which is how the harness sweeps Figures 16-18 without
// re-exploring.
type Pool struct {
	Benchmark *bench.Benchmark
	Machine   machine.Config
	Algorithm Algorithm

	// DFGs covers every executed basic block, indexed as in the program.
	// The map is the pool's own; its DFGs are the benchmark's shared,
	// read-only ones (bench.Benchmark.DFGs).
	DFGs map[int]*dfg.DFG
	// Hot lists the explored block indices.
	Hot []int
	// BaseCycles is the whole-program cycle count without any ISE.
	BaseCycles float64
	// Groups are the merged candidate groups with gains attached.
	Groups []merging.Group

	// Rounds and CappedRounds sum the hot-block explorations' core.Result
	// counters: the rounds run and those the iteration cap ended before
	// P_END.
	Rounds, CappedRounds int

	// CacheHits and CacheMisses report the schedule-evaluation cache
	// traffic of the pool's exploration and pricing stages. The counts are
	// exact (see core.EvalCache.Stats); the cache is the pool's own, so they
	// cover this pool's traffic only.
	CacheHits, CacheMisses uint64

	// mu guards baseLen: BuildPool fully populates the map, but a Pool made
	// by hand (or a future partial build) may hit the lazy path from
	// concurrent Evaluate/BuildMultiPool sweeps.
	mu sync.Mutex
	// baseLen caches each block's all-software schedule length; guarded by mu.
	baseLen map[int]int
	// kern is the lazy path's scheduling kernel; guarded by mu.
	kern *sched.Scheduler
}

// Truncated returns how many of the pool's subgraph searches so far ran out
// of match.DefaultLimit: merging's in BuildPool and replacement's in
// Evaluate, counted on the candidates whose patterns were searched
// (merging.Candidate.Truncated). A truncated search may have missed an
// embedding or an occurrence, so every result of a pool that reports 0 is
// exact.
func (p *Pool) Truncated() int {
	n := 0
	for _, g := range p.Groups {
		for _, c := range g.Members {
			n += c.Truncated()
		}
	}
	return n
}

// sortedBlocks returns the block indices of m in ascending order. Map
// iteration order is randomized, and the whole-program reductions below are
// float sums of weighted cycle counts — their order is part of the
// determinism contract (enforced by iselint's maporder pass).
func sortedBlocks(m map[int]*dfg.DFG) []int {
	idx := make([]int, 0, len(m))
	for bi := range m {
		idx = append(idx, bi)
	}
	sort.Ints(idx)
	return idx
}

// blockBase returns the all-software schedule length of block d. Safe for
// concurrent use: the lazy fill of baseLen is serialized under p.mu (the
// recompute on a lost race is avoided by re-checking under the lock, and
// ListSchedule for a missing block runs inside the critical section — the
// miss path is cold, BuildPool pre-populates every executed block).
func (p *Pool) blockBase(d *dfg.DFG) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.baseLen[d.BlockIndex]; ok {
		return n, nil
	}
	if p.kern == nil {
		p.kern = sched.NewScheduler()
	}
	s, err := p.kern.Schedule(d, p.kern.AllSoftware(d.Len()), p.Machine)
	if err != nil {
		return 0, err
	}
	if p.baseLen == nil {
		p.baseLen = map[int]int{}
	}
	p.baseLen[d.BlockIndex] = s.Length
	return s.Length, nil
}

// Report is the outcome of one full flow evaluation.
type Report struct {
	Benchmark   string
	OptLevel    string
	Machine     string
	Algorithm   Algorithm
	BaseCycles  float64
	FinalCycles float64
	AreaUM2     float64
	NumISEs     int
	Selected    []*merging.Candidate
}

// Reduction returns the relative execution-time reduction.
func (r *Report) Reduction() float64 {
	if r.BaseCycles == 0 {
		return 0
	}
	return (r.BaseCycles - r.FinalCycles) / r.BaseCycles
}

// BuildPool takes the benchmark's profile and the DFGs of its executed
// blocks (computed once per benchmark and shared, see bench.Benchmark.DFGs),
// explores the hottest blocks with the chosen algorithm, measures each
// candidate's gain, and merges candidates into hardware-sharing groups. The
// pool's DFGs map is its own, but its values are the shared DFGs, which
// nothing in the flow writes.
func BuildPool(bm *bench.Benchmark, opts Options) (*Pool, error) {
	//lint:ignore ctxflow compat wrapper: BuildPool predates cancellation; BuildPoolCtx is the cancellable form
	return BuildPoolCtx(context.Background(), bm, opts)
}

// BuildPoolCtx is BuildPool with cooperative cancellation: the context is
// threaded into every hot-block exploration (checked between restarts and
// between convergence iterations) and between hot blocks, so a cancelled
// build returns ctx's error within one ACO iteration instead of finishing
// the pool.
func BuildPoolCtx(ctx context.Context, bm *bench.Benchmark, opts Options) (*Pool, error) {
	if opts.HotBlocks <= 0 {
		opts.HotBlocks = 3
	}
	prof, err := bm.Profile()
	if err != nil {
		return nil, fmt.Errorf("flow: profiling: %w", err)
	}
	dfgs, err := bm.DFGs()
	if err != nil {
		return nil, fmt.Errorf("flow: profiling: %w", err)
	}
	pool := &Pool{
		Benchmark: bm,
		Machine:   opts.Machine,
		Algorithm: opts.Algorithm,
		DFGs:      make(map[int]*dfg.DFG, len(dfgs)),
		Hot:       prof.HotBlocks(bm.Prog, opts.HotBlocks),
	}
	for _, d := range dfgs {
		pool.DFGs[d.BlockIndex] = d
	}

	// Whole-program baseline: every block all-software, in ascending block
	// order so the float accumulation of BaseCycles is reproducible. One
	// pooled kernel serves the whole sequential loop, so the per-block
	// scratch stays warm across blocks — and across pool builds.
	base := make(map[int]int, len(pool.DFGs))
	baseKern := getKern()
	defer putKern(baseKern)
	for _, bi := range sortedBlocks(pool.DFGs) {
		d := pool.DFGs[bi]
		s, err := baseKern.Schedule(d, baseKern.AllSoftware(d.Len()), opts.Machine)
		if err != nil {
			return nil, fmt.Errorf("flow: base schedule %s: %w", d.Name, err)
		}
		base[bi] = s.Length
		pool.BaseCycles += float64(s.Length) * float64(d.Weight)
	}
	//lint:ignore lockguard pool is still private to BuildPool; it is not published until return
	pool.baseLen = base

	// Exploration on the hot blocks. Blocks are independent and each
	// exploration is deterministically seeded, so they fan out across the
	// bounded worker pool (opts.Params.Workers wide; restarts inside each
	// exploration share the same knob). Results are collected into
	// per-block slots in hot-block order to keep the pool deterministic.
	// One schedule-evaluation cache spans exploration and pricing: the
	// cumulative prefix assignments realMarginalGains re-prices are exactly
	// the ones the exploration already evaluated.
	if opts.Algorithm != MI && opts.Algorithm != SI {
		return nil, fmt.Errorf("flow: unknown algorithm %q", opts.Algorithm)
	}
	var cache *core.EvalCache
	if !opts.Params.NoEvalCache {
		cache = core.NewEvalCache()
	}
	if opts.Algorithm == MI {
		// Size the shared explorer arenas to the run's largest hot block
		// before fanning out, so no worker grows them mid-exploration — the
		// whole warmup cost is paid here, once per process
		// (core.TestPrewarmedExploreGrowsNoArenas pins this).
		hotDFGs := make([]*dfg.DFG, 0, len(pool.Hot))
		for _, bi := range pool.Hot {
			hotDFGs = append(hotDFGs, pool.DFGs[bi])
		}
		exploreScratch.Prewarm(hotDFGs...)
	}
	perBlock := make([][]*merging.Candidate, len(pool.Hot))
	rounds := make([][2]int, len(pool.Hot))
	errs := make([]error, len(pool.Hot))
	priceKerns := make([]*sched.Scheduler, parallel.Degree(opts.Params.Workers, len(pool.Hot)))
	for i := range priceKerns {
		priceKerns[i] = getKern()
	}
	defer func() {
		for _, k := range priceKerns {
			putKern(k)
		}
	}()
	cancelErr := parallel.ForEachWorkerCtx(ctx, len(pool.Hot), opts.Params.Workers, func(w, hi int) {
		d := pool.DFGs[pool.Hot[hi]]
		var r *core.Result
		var err error
		switch opts.Algorithm {
		case MI:
			r, _, err = core.ExploreResumable(ctx, d, opts.Machine, opts.Params,
				core.ResumeOptions{Cache: cache, Scratch: exploreScratch})
		case SI:
			r, err = baseline.ExploreSharedCtx(ctx, d, opts.Machine, opts.Params, baselineScratch)
		}
		if err != nil {
			errs[hi] = fmt.Errorf("flow: explore %s: %w", d.Name, err)
			return
		}
		ises := r.ISEs
		rounds[hi] = [2]int{r.Rounds, r.CappedRounds}
		gains, err := realMarginalGains(d, opts.Machine, ises, cache, priceKerns[w])
		if err != nil {
			errs[hi] = err
			return
		}
		for i, ise := range ises {
			perBlock[hi] = append(perBlock[hi], &merging.Candidate{ISE: ise, DFG: d, Gain: gains[i] * float64(d.Weight)})
		}
	})
	if cancelErr != nil {
		return nil, cancelErr
	}
	var cands []*merging.Candidate
	for hi := range perBlock {
		if errs[hi] != nil {
			return nil, errs[hi]
		}
		cands = append(cands, perBlock[hi]...)
		pool.Rounds += rounds[hi][0]
		pool.CappedRounds += rounds[hi][1]
	}
	pool.CacheHits, pool.CacheMisses = cache.Stats()
	pool.Groups = merging.Merge(cands)
	return pool, nil
}

// realMarginalGains prices each explored ISE by its marginal cycle saving on
// the target machine, deploying the block's ISEs cumulatively in exploration
// order. Both algorithms are priced identically — the paper runs the same
// ISE selection for both (§5.1) — so the comparison isolates candidate
// *quality*: the single-issue baseline's candidates pack operations the wide
// machine already runs in parallel, which shows up here as little or no
// marginal gain for their extra area.
// Evaluations go through the shared schedule-evaluation cache: the MI
// exploration has already scheduled every cumulative prefix it accepted, so
// pricing is normally all cache hits. Every assignment is built in kern's
// AllSoftware buffer.
func realMarginalGains(d *dfg.DFG, cfg machine.Config, ises []*core.ISE, cache *core.EvalCache, kern *sched.Scheduler) ([]float64, error) {
	a := kern.AllSoftware(d.Len())
	prevLen, err := cache.ScheduleWith(kern, d, a, cfg)
	if err != nil {
		return nil, fmt.Errorf("flow: pricing %s: %w", d.Name, err)
	}
	gains := make([]float64, len(ises))
	for i := range ises {
		a = core.BuildAssignmentWith(a, d, ises[:i+1])
		n, err := cache.ScheduleWith(kern, d, a, cfg)
		if err != nil {
			return nil, fmt.Errorf("flow: pricing %s: %w", d.Name, err)
		}
		gains[i] = float64(prevLen - n)
		prevLen = n
	}
	return gains, nil
}

// Evaluate runs the constraint-dependent stages — selection with hardware
// sharing, replacement, final scheduling — and reports whole-program
// results.
func (p *Pool) Evaluate(c selection.Constraints) (*Report, error) {
	//lint:ignore ctxflow compat wrapper: Evaluate predates cancellation; EvaluateCtx is the cancellable form
	return p.EvaluateCtx(context.Background(), c)
}

// EvaluateCtx is Evaluate with cooperative cancellation, checked between
// blocks: a constraint sweep over a large pool re-schedules every block per
// point, and a cancelled sweep should stop at a block boundary instead of
// finishing the whole evaluation.
func (p *Pool) EvaluateCtx(ctx context.Context, c selection.Constraints) (*Report, error) {
	dec := selection.Select(p.Groups, c)
	rep := &Report{
		Benchmark:  p.Benchmark.Name,
		OptLevel:   p.Benchmark.Opt,
		Machine:    p.Machine.Name,
		Algorithm:  p.Algorithm,
		BaseCycles: p.BaseCycles,
		AreaUM2:    dec.AreaUM2,
		NumISEs:    len(dec.Selected),
		Selected:   dec.Selected,
	}
	// One pooled kernel per Evaluate call: sweeps may run Evaluate
	// concurrently, so the kernel is call-local, and across calls the pool
	// keeps its per-block scratch warm — the steady-state hot path of
	// constraint sweeps pays no warmup after the first evaluation.
	kern := getKern()
	defer putKern(kern)
	for _, bi := range sortedBlocks(p.DFGs) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := p.DFGs[bi]
		s, _, _, err := replace.ApplyWith(kern, d, p.Machine, dec.Selected)
		if err != nil {
			return nil, err
		}
		rep.FinalCycles += float64(s.Length) * float64(d.Weight)
	}
	return rep, nil
}

// Run executes the whole flow for one benchmark under unlimited selection
// constraints.
func Run(bm *bench.Benchmark, opts Options) (*Report, error) {
	//lint:ignore ctxflow compat wrapper: Run predates cancellation; RunCtx is the cancellable form
	return RunCtx(context.Background(), bm, opts)
}

// RunCtx is Run with cooperative cancellation (see BuildPoolCtx), threaded
// through both the pool build and the final evaluation.
func RunCtx(ctx context.Context, bm *bench.Benchmark, opts Options) (*Report, error) {
	pool, err := BuildPoolCtx(ctx, bm, opts)
	if err != nil {
		return nil, err
	}
	return pool.EvaluateCtx(ctx, selection.Constraints{})
}
