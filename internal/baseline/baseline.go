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
// The baseline runs through the MI explorer's restart driver in
// internal/core (DESIGN.md §8): the driver owns rounds, iterations, the
// P_END test, the restart fan-out over its per-worker scratch pool and the
// best-of-restarts reduction, and the baseline supplies only its step —
// option selection, the serial cycle count, the legality-only merit update
// and the serial-gain candidate choice (core.ExploreSI).
package baseline

import (
	"context"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
)

// Scratch pools the baseline's per-worker scheduling kernels and explorer
// arenas across the explorations of one run. It is the driver's pool.
type Scratch = core.Scratch

// NewScratch returns an empty scratch pool.
func NewScratch() *Scratch { return core.NewScratch() }

// ExploreSharedCtx runs the legality-only single-issue exploration on d.
// The machine configuration supplies only the register-port constraints
// Nin/Nout (the single-issue model ignores issue width); the returned
// Result's Base and Final cycle counts are nevertheless measured on cfg by
// the multiple-issue scheduler so that results are directly comparable with
// core.Explore. Among the restarts (seeded p.Seed + r*104729) it returns
// the one with the fewest serial cycles, then the least area.
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
	return core.ExploreSI(ctx, d, cfg, p, scr)
}
