package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeClock is an injectable lease clock (Options.Now) so fault tests drive
// lease expiry deterministically instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestMidShardKillResumesFromSnapshot is the fault-tolerance half of the
// fleet contract: worker A is killed mid-shard right after its first
// snapshot heartbeat; once its lease lapses, worker B claims the shard with
// that snapshot in the envelope, resumes via core.ResumeFrom, and the final
// answer is still byte-identical to an uninterrupted single-node run — at
// intra-shard worker counts 1 and 4, under -race via make race.
func TestMidShardKillResumesFromSnapshot(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			wl := testWorkload(8, workers)
			want := stateJSON(t, singleNode(t, wl, 0))

			clk := newFakeClock()
			coord, url := startCoordinator(t, Options{
				Now:        clk.Now,
				Lease:      time.Minute,
				sweepEvery: 5 * time.Millisecond,
			})
			retriesBefore := obsShardRetries.Value()

			resCh := make(chan *core.Result, 1)
			errCh := make(chan error, 1)
			go func() {
				r, err := coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{Shards: 1})
				resCh <- r
				errCh <- err
			}()

			// Worker A: 1ms slices that also end at its first finished
			// restart, so it checkpoints while restarts are still unstarted;
			// its context is canceled from inside the first successful
			// heartbeat — the tightest possible mid-shard kill with a
			// snapshot on record.
			actx, killA := context.WithCancel(context.Background())
			defer killA()
			beat := make(chan struct{})
			var beatOnce sync.Once
			doneA := startWorker(actx, WorkerOptions{
				Coordinator:       url,
				Name:              "A",
				Poll:              time.Millisecond,
				CheckpointEvery:   time.Millisecond,
				Logf:              t.Logf,
				endSliceOnRestart: true,
				onBeat: func(s *core.Snapshot) {
					beatOnce.Do(func() {
						if s == nil {
							t.Error("heartbeat with nil snapshot")
						}
						killA()
						close(beat)
					})
				},
			})
			awaitBeat(t, beat, resCh, killA, doneA)

			// The lease lapses; worker B's next claim must re-dispatch the
			// shard together with A's uploaded snapshot.
			clk.Advance(2 * time.Minute)
			bctx, stopB := context.WithCancel(context.Background())
			defer stopB()
			resumed := make(chan *ShardEnvelope, 1)
			doneB := startWorker(bctx, WorkerOptions{
				Coordinator: url,
				Name:        "B",
				Poll:        time.Millisecond,
				Logf:        t.Logf,
				onClaim: func(env *ShardEnvelope) {
					select {
					case resumed <- env:
					default:
					}
				},
			})

			res := <-resCh
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			stopB()
			<-doneB

			env := <-resumed
			if env.Snapshot == nil {
				t.Fatal("re-dispatched shard carried no snapshot; worker B started from scratch")
			}
			if got := stateJSON(t, res); got != want {
				t.Fatalf("resumed fleet result diverged from single node:\n got %s\nwant %s", got, want)
			}
			if d := obsShardRetries.Value() - retriesBefore; d < 1 {
				t.Fatalf("shard retry counter moved by %v, want >= 1", d)
			}
		})
	}
}

// TestWorkerErrorExhaustsRetries: repeated worker-reported errors consume the
// retry budget and fail the job with a diagnosable error instead of looping
// forever.
func TestWorkerErrorExhaustsRetries(t *testing.T) {
	coord, _ := startCoordinator(t, Options{MaxRetries: 2})
	wl := testWorkload(2, 1)

	errCh := make(chan error, 1)
	go func() {
		_, err := coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{Shards: 1})
		errCh <- err
	}()

	claim := func() *ShardEnvelope {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if env, _, ok := coord.Claim(claimRequest{Worker: "w"}); ok {
				return env
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("shard never became claimable")
		return nil
	}
	for i := 0; i < 3; i++ { // initial dispatch + 2 retries
		env := claim()
		if err := coord.Result(env.Spec.Job, env.Spec.Shard, resultRequest{Worker: "w", Error: "boom"}, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("job error = %v, want retry-budget failure", err)
	}
}

// TestLeaseOwnership: heartbeats and results from anyone but the lease
// holder get ErrGone, and so does traffic for a job that already finished.
func TestLeaseOwnership(t *testing.T) {
	coord, _ := startCoordinator(t, Options{})
	wl := testWorkload(1, 1)
	state := singleNode(t, wl, 0).State()

	resCh := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{Shards: 1})
		resCh <- r
		errCh <- err
	}()

	var env *ShardEnvelope
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e, _, ok := coord.Claim(claimRequest{Worker: "owner"}); ok {
			env = e
			break
		}
		time.Sleep(time.Millisecond)
	}
	if env == nil {
		t.Fatal("shard never became claimable")
	}
	job, shard := env.Spec.Job, env.Spec.Shard

	if err := coord.Heartbeat(job, shard, heartbeatRequest{Worker: "impostor"}); err != ErrGone {
		t.Fatalf("impostor heartbeat: %v, want ErrGone", err)
	}
	if err := coord.Result(job, shard, resultRequest{Worker: "impostor", Result: state}, obs.TraceContext{}); err != ErrGone {
		t.Fatalf("impostor result: %v, want ErrGone", err)
	}
	if err := coord.Heartbeat(job, shard, heartbeatRequest{Worker: "owner"}); err != nil {
		t.Fatalf("owner heartbeat: %v", err)
	}
	if err := coord.Result(job, shard, resultRequest{Worker: "owner", Result: state}, obs.TraceContext{}); err != nil {
		t.Fatalf("owner result: %v", err)
	}
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, res); got != stateJSON(t, singleNode(t, wl, 0)) {
		t.Fatal("externally delivered state did not reduce to the single-node result")
	}
	// The job is reduced and forgotten; late traffic is told to go away.
	if err := coord.Heartbeat(job, shard, heartbeatRequest{Worker: "owner"}); err != ErrGone {
		t.Fatalf("post-completion heartbeat: %v, want ErrGone", err)
	}
}
