package parallel

import "sync"

// ScratchPool is a concurrency-safe free list of per-worker scratch values
// (scheduling kernels, explorer arenas). Unlike sync.Pool it never discards
// items, so scratch warmed on one work batch stays warm for the next — the
// cross-block arena-reuse contract of DESIGN.md §13: arena warmup is paid
// per worker per run, not per (worker, block).
//
// Scratch obtained from a pool must be exactly that — scratch. Callers may
// not let pooled state influence results: a value handed out by Get may have
// served any earlier caller, in any order, so everything read from it must be
// overwritten (or version-checked, like the explorer's per-DFG tables) before
// use. The pool itself hands out items in LIFO order under a mutex; which
// item a caller receives is timing-dependent and therefore must be
// observationally irrelevant.
type ScratchPool struct {
	// New builds a fresh item when the free list is empty. Must be set
	// before the first Get and never changed afterwards.
	New func() any

	mu   sync.Mutex
	free []any // guarded by mu
}

// Get returns a scratch item, reusing the most recently released one when
// available. The caller owns the item until it calls Put.
func (p *ScratchPool) Get() any {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.New()
}

// Put returns an item to the free list. The caller must not use it again —
// another worker may receive it immediately.
func (p *ScratchPool) Put(v any) {
	if v == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
