package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCtxCompletesWithoutCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 200
		counts := make([]int32, n)
		err := ForEachWorkerCtx(context.Background(), n, workers, func(_, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEachWorkerCtx(ctx, 100, workers, func(int, int) {
			t.Errorf("workers=%d: fn ran under a canceled context", workers)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestForEachWorkerCtxStopsMidway cancels from inside an item and checks
// that (a) the error surfaces, (b) no index runs twice, and (c) work stops
// claiming new indices shortly after cancellation — without demanding an
// exact cutoff, which is timing-dependent by design.
func TestForEachWorkerCtxStopsMidway(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 10000
		ctx, cancel := context.WithCancel(context.Background())
		counts := make([]int32, n)
		var done atomic.Int32
		err := ForEachWorkerCtx(ctx, n, workers, func(w, i int) {
			if w < 0 || w >= Degree(workers, n) {
				t.Errorf("worker id %d out of range", w)
			}
			atomic.AddInt32(&counts[i], 1)
			if done.Add(1) == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		ran := int32(0)
		for i, c := range counts {
			if c > 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
			ran += c
		}
		if ran == n {
			t.Fatalf("workers=%d: cancellation did not stop the loop", workers)
		}
	}
}

func TestForEachWorkerCtxPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	_ = ForEachWorkerCtx(context.Background(), 8, 4, func(w, i int) {
		if i == 3 {
			panic("boom")
		}
	})
}
