package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestExploreBlockMatchesSingleNode is the fleet determinism contract: the
// distributed answer is byte-identical to the single-node one at every shard
// count, with multiple workers racing on the claim queue.
func TestExploreBlockMatchesSingleNode(t *testing.T) {
	wl := testWorkload(6, 1)
	want := stateJSON(t, singleNode(t, wl, 0))

	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coord, url := startCoordinator(t, Options{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var done []<-chan struct{}
			for i := 0; i < 2; i++ {
				done = append(done, startWorker(ctx, WorkerOptions{
					Coordinator: url,
					Poll:        2 * time.Millisecond,
					Logf:        t.Logf,
				}))
			}
			var events atomic.Int64
			res, err := coord.ExploreBlock(t.Context(), wl, 0, BlockOptions{
				Shards:      shards,
				OnShardDone: func(ShardEvent) { events.Add(1) },
			})
			cancel()
			for _, d := range done {
				<-d
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := stateJSON(t, res); got != want {
				t.Fatalf("distributed result diverged from single node:\n got %s\nwant %s", got, want)
			}
			if int(events.Load()) != shards {
				t.Fatalf("OnShardDone fired %d times, want %d", events.Load(), shards)
			}
		})
	}
}
