package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testSpec is a small, fast job: the crc32 inner loop with reduced-effort
// parameters.
func testSpec(workers int) JobSpec {
	p := core.FastParams()
	p.Workers = workers
	return JobSpec{
		Name:    "t",
		Bench:   "crc32",
		Machine: MachineSpec{Issue: 2, ReadPorts: 4, WritePorts: 2},
		Params:  &p,
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return m
}

// waitState polls until the job reaches want or the deadline expires.
func waitState(t *testing.T, m *Manager, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() && want != st.State {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s in time", id, want)
	return JobStatus{}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1})
	st, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %s", st.State)
	}
	final := waitState(t, m, st.ID, StateDone)
	if len(final.Blocks) != 1 {
		t.Fatalf("%d blocks, want 1", len(final.Blocks))
	}
	b := final.Blocks[0]
	if b.BaseCycles <= 0 || b.FinalCycles <= 0 || b.FinalCycles > b.BaseCycles {
		t.Fatalf("nonsense cycles: base %d final %d", b.BaseCycles, b.FinalCycles)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatal("missing timestamps")
	}
	// The terminal event stream replays fully after the fact.
	ch, cancel, err := m.Subscribe(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var types []string
	for ev := range ch {
		types = append(types, ev.Type)
	}
	if len(types) < 3 || types[0] != EventQueued || types[len(types)-1] != EventDone {
		t.Fatalf("event stream %v, want queued … done", types)
	}
	sawRestart := false
	for _, ty := range types {
		if ty == EventRestart {
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatalf("no restart progress events in %v", types)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	bad := []JobSpec{
		{},                             // neither bench nor program
		{Bench: "crc32", Program: "x"}, // both
		{Bench: "crc32"},               // no machine
		{Bench: "nope", Machine: MachineSpec{Issue: 2, ReadPorts: 4, WritePorts: 2}, Hot: -1},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestQueueOverflowRejects(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1, QueueSize: 2})
	// Pin the single runner on a heavyweight job so subsequent submissions
	// stay queued deterministically.
	heavy := testSpec(1)
	p := core.DefaultParams()
	p.Restarts = 64
	heavy.Params = &p
	pinned, err := m.Submit(heavy)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, pinned.ID, StateRunning)

	var ids []string
	full := 0
	for i := 0; i < 5; i++ {
		st, serr := m.Submit(testSpec(1))
		switch {
		case serr == nil:
			ids = append(ids, st.ID)
		case errors.Is(serr, ErrQueueFull):
			full++
		default:
			t.Fatal(serr)
		}
	}
	if len(ids) != 2 {
		t.Fatalf("%d jobs accepted, want exactly the queue capacity 2", len(ids))
	}
	if full != 3 {
		t.Fatalf("%d rejections, want 3", full)
	}
	met := m.Metrics()
	if met["jobs_rejected_total"].(uint64) != 3 {
		t.Fatalf("jobs_rejected_total = %v, want 3", met["jobs_rejected_total"])
	}
	if _, err := m.Cancel(pinned.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
}

// queueBehindHeavy pins a single-runner manager with a long job and queues
// a second one behind it, which therefore cannot leave the queue.
func queueBehindHeavy(t *testing.T, m *Manager) (first, second JobStatus) {
	t.Helper()
	heavy := testSpec(1)
	p := core.DefaultParams()
	p.Restarts = 64
	heavy.Params = &p
	first, err := m.Submit(heavy)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	second, err = m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	return first, second
}

func TestCancelQueuedJob(t *testing.T) {
	// Queue capacity but zero progress: occupy the single runner first.
	m := newTestManager(t, Config{Runners: 1, QueueSize: 8})
	first, second := queueBehindHeavy(t, m)
	if _, err := m.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	st, err := m.Get(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job in state %s", st.State)
	}
	if _, err := m.Cancel(second.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("second cancel: %v, want ErrFinished", err)
	}
	if _, err := m.Cancel("does-not-exist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateCanceled)
}

// TestCancelQueuedDeletesCheckpointFirst: canceling a queued job deletes its
// checkpoint before the canceled state becomes visible, so a process that
// dies in between reloads a queued job, never one already reported canceled.
// The checkpoint is swapped for a non-empty directory so the delete fails and
// logs; the log hook records the state a reader sees at that moment.
func TestCancelQueuedDeletesCheckpointFirst(t *testing.T) {
	dir := t.TempDir()
	var (
		m       *Manager
		target  string
		atFirst []State
	)
	logf := func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "service: delete checkpoint") && args[0] == target {
			st, err := m.Get(target)
			if err != nil {
				t.Error(err)
			}
			atFirst = append(atFirst, st.State)
		}
	}
	m = newTestManager(t, Config{Runners: 1, QueueSize: 8, StateDir: dir, Logf: logf})
	first, second := queueBehindHeavy(t, m)
	cp := filepath.Join(dir, "job-"+second.ID+".json")
	if err := os.Remove(cp); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(cp, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	target = second.ID
	st, err := m.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("Cancel returned state %s, want %s", st.State, StateCanceled)
	}
	if len(atFirst) != 1 || atFirst[0] != StateQueued {
		t.Fatalf("states seen while deleting the checkpoint: %v, want [%s]", atFirst, StateQueued)
	}
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateCanceled)
}

// TestConcurrentCancelQueuedJob: racing Cancels of one queued job cancel it
// once; every other call reports ErrFinished.
func TestConcurrentCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1, QueueSize: 8, StateDir: t.TempDir()})
	first, second := queueBehindHeavy(t, m)
	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := m.Cancel(second.ID)
			errs <- err
		}()
	}
	won := 0
	for i := 0; i < callers; i++ {
		switch err := <-errs; {
		case err == nil:
			won++
		case !errors.Is(err, ErrFinished):
			t.Fatalf("cancel: %v, want nil or ErrFinished", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d Cancel calls succeeded, want 1", won)
	}
	if n := m.Metrics()["jobs_canceled_total"].(uint64); n != 1 {
		t.Fatalf("jobs_canceled_total = %d, want 1", n)
	}
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateCanceled)
}

func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1})
	spec := testSpec(1)
	// A heavyweight parameter set so the job is reliably still running
	// when the cancel lands.
	p := core.DefaultParams()
	p.Restarts = 64
	spec.Params = &p
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateCanceled)
	if final.Error == "" {
		t.Fatal("canceled job has no error message")
	}
	met := m.Metrics()
	if met["jobs_canceled_total"].(uint64) != 1 {
		t.Fatalf("jobs_canceled_total = %v, want 1", met["jobs_canceled_total"])
	}
}

func TestJobDeadlineFails(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1})
	spec := testSpec(1)
	p := core.DefaultParams()
	p.Restarts = 256
	spec.Params = &p
	spec.DeadlineMS = 1
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateFailed)
	if final.Error == "" {
		t.Fatal("deadline failure has no error message")
	}
}

func TestMetricsShape(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1})
	st, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	met := m.Metrics()
	for _, key := range []string{
		"jobs_submitted_total", "jobs_done_total", "queue_depth",
		"eval_cache_hits_total", "eval_cache_misses_total",
		"job_latency_seconds_p50", "job_latency_seconds_p99",
	} {
		if _, ok := met[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	if met["jobs_done_total"].(uint64) != 1 {
		t.Fatalf("jobs_done_total = %v", met["jobs_done_total"])
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	cfg := Config{Runners: 1, Logf: t.Logf}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if !m.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := m.Submit(testSpec(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}
