package flow

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// Run-wide scratch pools (DESIGN.md §13). Scheduling kernels and explorer
// arenas are grow-only: warming them to a DFG's size is a fixed cost, so the
// flow shares them process-wide instead of rebuilding per block, per
// evaluation or per pool — arena warmup is paid once per worker per run, not
// once per (worker, block). Everything pooled here is pure scratch: which
// call previously used an item never affects a result (the explorers reset
// per restart, the kernels version their tables per call), so results are
// byte-identical with or without pooling, at any worker count.
var (
	// exploreScratch pools the MI exploration's per-worker scratch (kernel +
	// explorer arenas) across hot blocks and across pools.
	exploreScratch = core.NewScratch()
	// baselineScratch pools the SI baseline's per-worker scratch likewise.
	baselineScratch = baseline.NewScratch()
	// kernPool pools the flow's own scheduling kernels: whole-program base
	// schedules, candidate pricing, and the per-block re-scheduling of
	// Evaluate sweeps.
	kernPool = parallel.ScratchPool{New: func() any { return sched.NewScheduler() }}
)

// getKern borrows a warmed scheduling kernel from the process-wide pool;
// putKern returns it. Callers must not use the kernel after putKern.
func getKern() *sched.Scheduler  { return kernPool.Get().(*sched.Scheduler) }
func putKern(k *sched.Scheduler) { kernPool.Put(k) }
