package core

import (
	"sync"

	"repro/internal/dfg"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// workerScratch bundles the reusable per-worker state of one exploration
// worker: the scheduling kernel and the arenas of both explorers' steps
// (MI's explorer, the SI baseline's siExplorer). All are pure scratch —
// which worker (or which exploration) previously used them never affects a
// restart's result, because every consumer resets or overwrites what it
// reads (the driver's reset and the step's bind rebind per-DFG state; the
// kernel versions its own tables per call).
type workerScratch struct {
	kern *sched.Scheduler
	exp  explorer
	si   siExplorer
}

// Scratch is a pool of worker scratch shared across the explorations of one
// run (or one process — the pool only ever holds as many items as were
// simultaneously in use). Safe for concurrent use; see
// parallel.ScratchPool for the reuse contract.
//
// One exploration worker needs a scheduling kernel and an explorer, both of
// which are grow-only arenas: warming them is a fixed cost per (worker, DFG)
// pair. A Scratch keeps those pairs alive across explorations (DESIGN.md
// §13), so a flow run that explores many hot blocks — or an experiments
// sweep that builds many pools — pays warmup once per worker for the whole
// run instead of once per block.
type Scratch struct {
	pool parallel.ScratchPool

	// Prewarm bounds: the arena sizes of the largest DFG announced so far.
	// acquire presizes every handed-out explorer to them, so arenas warmed
	// for a run's biggest block never regrow on any block (see prewarm.go).
	mu     sync.Mutex
	bounds arenaBounds // guarded by mu
}

// Prewarm announces the DFGs an upcoming run will explore, so every
// worker scratch handed out afterwards is presized to the largest of them —
// the arena-warmup amortization that removes the per-(worker, block) warmup
// cost. Bounds only ever grow (several callers may announce different runs);
// the call itself allocates nothing beyond the pool items' own growth.
func (s *Scratch) Prewarm(dfgs ...*dfg.DFG) {
	var b arenaBounds
	for _, d := range dfgs {
		if d != nil {
			b = b.union(boundsOf(d))
		}
	}
	s.mu.Lock()
	s.bounds = s.bounds.union(b)
	s.mu.Unlock()
}

// NewScratch returns an empty scratch pool.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.pool.New = func() any {
		return &workerScratch{kern: sched.NewScheduler()}
	}
	return s
}

// acquire hands out one worker's scratch, warm when a previous exploration
// released one, presized to the Prewarm bounds when any were announced.
// Callers must release it when their exploration finishes.
func (s *Scratch) acquire() *workerScratch {
	ws := s.pool.Get().(*workerScratch)
	s.mu.Lock()
	b := s.bounds
	s.mu.Unlock()
	if b.nodes > 0 {
		ws.exp.presize(b)
	}
	return ws
}

// release returns ws to the pool. ws must not be used afterwards.
func (s *Scratch) release(ws *workerScratch) { s.pool.Put(ws) }
