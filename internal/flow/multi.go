package flow

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/merging"
	"repro/internal/replace"
	"repro/internal/selection"
)

// MultiPool aggregates the exploration pools of several applications so one
// instruction-set extension — one set of ASFUs — can be selected for all of
// them together. Candidates explored in any application are matched and
// deployed in every application, and hardware sharing spans the whole set:
// the co-design scenario of an embedded platform running a fixed application
// suite.
type MultiPool struct {
	Pools []*Pool
	// Groups merges every pool's candidates into shared-hardware groups,
	// with gains re-priced program-suite-wide.
	Groups []merging.Group
}

// MultiReport is the outcome of evaluating a MultiPool under constraints.
type MultiReport struct {
	Machine     string
	Algorithm   Algorithm
	AreaUM2     float64
	NumISEs     int
	Selected    []*merging.Candidate
	PerApp      []*Report
	BaseCycles  float64
	FinalCycles float64
}

// Reduction returns the suite-wide execution-time reduction.
func (r *MultiReport) Reduction() float64 {
	if r.BaseCycles == 0 {
		return 0
	}
	return (r.BaseCycles - r.FinalCycles) / r.BaseCycles
}

// BuildMultiPool explores every benchmark with the same options and merges
// the candidate pools. Candidate gains are re-priced suite-wide: each
// candidate's gain becomes the sum over all applications of the cycles its
// deployment saves there (its own block's marginal plus cross-application
// matches), so an ISE useful to several programs outranks an equally fast
// single-program one.
func BuildMultiPool(benches []*bench.Benchmark, opts Options) (*MultiPool, error) {
	//lint:ignore ctxflow compat wrapper: BuildMultiPool predates cancellation; BuildMultiPoolCtx is the cancellable form
	return BuildMultiPoolCtx(context.Background(), benches, opts)
}

// BuildMultiPoolCtx is BuildMultiPool with cooperative cancellation,
// checked between benchmarks and threaded into each pool build (see
// BuildPoolCtx).
func BuildMultiPoolCtx(ctx context.Context, benches []*bench.Benchmark, opts Options) (*MultiPool, error) {
	if len(benches) == 0 {
		return nil, fmt.Errorf("flow: no benchmarks for multi-pool")
	}
	mp := &MultiPool{}
	var all []*merging.Candidate
	for _, bm := range benches {
		pool, err := BuildPoolCtx(ctx, bm, opts)
		if err != nil {
			return nil, err
		}
		mp.Pools = append(mp.Pools, pool)
		for _, g := range pool.Groups {
			all = append(all, g.Members...)
		}
	}
	// Re-price gains suite-wide: isolated deployment of each candidate
	// across every application of the suite. This is the expensive half of
	// the build — |candidates| × |pools| × |blocks| schedule calls — so the
	// cancellation the doc promises is checked per candidate here, not just
	// inside the per-benchmark pool builds above. One pooled kernel serves
	// the whole sweep, keeping its per-block scratch warm.
	kern := getKern()
	defer putKern(kern)
	for _, cand := range all {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total := 0.0
		for _, pool := range mp.Pools {
			for _, bi := range sortedBlocks(pool.DFGs) {
				d := pool.DFGs[bi]
				s, _, _, err := replace.ApplyWith(kern, d, pool.Machine, []*merging.Candidate{cand})
				if err != nil {
					return nil, err
				}
				base, err := pool.blockBase(d)
				if err != nil {
					return nil, err
				}
				total += float64(base-s.Length) * float64(d.Weight)
			}
		}
		cand.Gain = total
	}
	mp.Groups = merging.Merge(all)
	return mp, nil
}

// Evaluate selects one ISE set under the constraints and deploys it into
// every application of the suite.
func (mp *MultiPool) Evaluate(c selection.Constraints) (*MultiReport, error) {
	//lint:ignore ctxflow compat wrapper: Evaluate predates cancellation; EvaluateCtx is the cancellable form
	return mp.EvaluateCtx(context.Background(), c)
}

// EvaluateCtx is Evaluate with cooperative cancellation, checked per
// application before its blocks are re-scheduled.
func (mp *MultiPool) EvaluateCtx(ctx context.Context, c selection.Constraints) (*MultiReport, error) {
	dec := selection.Select(mp.Groups, c)
	rep := &MultiReport{
		Machine:   mp.Pools[0].Machine.Name,
		Algorithm: mp.Pools[0].Algorithm,
		AreaUM2:   dec.AreaUM2,
		NumISEs:   len(dec.Selected),
		Selected:  dec.Selected,
	}
	kern := getKern()
	defer putKern(kern)
	for _, pool := range mp.Pools {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		app := &Report{
			Benchmark:  pool.Benchmark.Name,
			OptLevel:   pool.Benchmark.Opt,
			Machine:    pool.Machine.Name,
			Algorithm:  pool.Algorithm,
			BaseCycles: pool.BaseCycles,
			Selected:   dec.Selected,
		}
		for _, bi := range sortedBlocks(pool.DFGs) {
			d := pool.DFGs[bi]
			s, _, _, err := replace.ApplyWith(kern, d, pool.Machine, dec.Selected)
			if err != nil {
				return nil, err
			}
			app.FinalCycles += float64(s.Length) * float64(d.Weight)
		}
		rep.PerApp = append(rep.PerApp, app)
		rep.BaseCycles += app.BaseCycles
		rep.FinalCycles += app.FinalCycles
	}
	return rep, nil
}
