package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegree(t *testing.T) {
	cpus := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, 100},             // default: one per item
		{-3, 5, 5},                // negative behaves like default
		{0, 1, 1},                 // a single item runs on the caller
		{4, 2, 2},                 // clamped to item count
		{3, 100, 3},               // explicit bound kept
		{1, 100, 1},               // explicit sequential
		{8, 0, 1},                 // no items still yields a valid degree
		{0, 0, 1},                 // ... also by default
		{cpus + 1, 100, cpus + 1}, // an explicit bound may exceed the CPUs
	}
	for _, c := range cases {
		if got := Degree(c.requested, c.n); got != c.want {
			t.Errorf("Degree(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 500
		counts := make([]int32, n)
		if err := ForEachWorkerCtx(context.Background(), n, workers, func(_, i int) {
			atomic.AddInt32(&counts[i], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	for _, n := range []int{0, -1} {
		if err := ForEachWorkerCtx(context.Background(), n, 4, func(int, int) {
			t.Fatalf("fn called with %d items", n)
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_ = ForEachWorkerCtx(context.Background(), 100, workers, func(int, int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, worker bound is %d", p, workers)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			_ = ForEachWorkerCtx(context.Background(), 10, workers, func(_, i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForEachWorkerContract checks the per-worker-state contract behind the
// scheduling-kernel fan-out: every item runs exactly once, worker ids stay in
// [0, Degree), and no two items ever run concurrently on the same worker id —
// which is what makes unlocked per-worker scratch (kernel arenas) safe.
func TestForEachWorkerContract(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 300
		degree := Degree(workers, n)
		counts := make([]int32, n)
		busy := make([]atomic.Int32, degree)
		_ = ForEachWorkerCtx(context.Background(), n, workers, func(w, i int) {
			if w < 0 || w >= degree {
				t.Errorf("workers=%d: worker id %d out of [0,%d)", workers, w, degree)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("workers=%d: worker %d ran two items concurrently", workers, w)
			}
			atomic.AddInt32(&counts[i], 1)
			busy[w].Add(-1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}
