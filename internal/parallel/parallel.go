// Package parallel provides the bounded worker pool used by every
// concurrent stage of the exploration flow (restart fan-out in
// internal/core and internal/baseline, per-block exploration in
// internal/flow). Callers index work by position and write results into
// per-index slots, so a parallel run and a sequential run produce identical
// outputs; only wall-clock time differs.
package parallel

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// obsItems counts the pool's completed work items on the obs.Default
// registry. Observation only: fn's outputs never depend on it.
var obsItems = obs.Default.Counter("ise_parallel_items_total",
	"Work items completed by the bounded worker pool.")

// Degree resolves a requested worker count for n work items: requested <= 0
// means "one worker per item", so every item starts at once and the Go
// scheduler time-shares them across the CPUs; the result is clamped to
// [1, n] so no idle goroutines are spawned.
//
// One goroutine per item, not one per CPU, because the pool's items are few,
// equal and indivisible (an exploration's restarts, a run's hot blocks): with
// GOMAXPROCS workers, 5 restarts on 2 CPUs run in waves of 2, 2 and 1, and
// one CPU idles through the whole last wave (DESIGN.md §8).
func Degree(requested, n int) int {
	w := requested
	if w <= 0 || w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEachWorkerCtx runs fn(worker, i) for every i in [0, n) on at most
// Degree(workers, n) goroutines and returns when all calls have finished.
// With one worker it degenerates to a plain loop on the calling goroutine.
// Items are handed out in index order but may complete in any order; fn must
// confine its writes to per-index state. A panic in any fn is re-raised on
// the calling goroutine after the pool drains, matching sequential behavior.
//
// fn receives the index of the worker goroutine running it, in
// [0, Degree(workers, n)), for callers that keep per-worker state (a
// scheduling kernel's arena, a scratch buffer pool). Items handed to the
// same worker run sequentially, so state indexed by the worker id needs no
// locking. Worker ids must not leak into results — the item→worker mapping
// is timing-dependent — which is exactly why per-worker state must be
// scratch whose content never alters fn's output for a given i.
//
// Cancellation is cooperative: workers check ctx before claiming each item.
// Once ctx is done no new items start, in-flight items run to completion,
// and the call returns ctx's error after the pool has drained. On
// cancellation the set of completed items is a timing-dependent subset of
// [0, n) — callers that checkpoint must record which slots were filled
// rather than assume a prefix. A nil return means every item ran.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Degree(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(0, i)
			obsItems.Inc()
		}
		return ctx.Err()
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		pval  any
		haveP bool
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !haveP {
						pval, haveP = r, true
					}
					mu.Unlock()
				}
			}()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
				obsItems.Inc()
			}
		}(k)
	}
	wg.Wait()
	if haveP {
		panic(pval)
	}
	return ctx.Err()
}
