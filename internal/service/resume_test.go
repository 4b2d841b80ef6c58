package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// heavySpec is a job big enough to be reliably mid-run when the drain
// lands: two hot blocks, full default effort, many restarts.
func heavySpec(workers int) JobSpec {
	p := core.DefaultParams()
	p.Restarts = 16
	p.Workers = workers
	return JobSpec{
		Name:    "resume-e2e",
		Bench:   "crc32",
		Hot:     2,
		Machine: MachineSpec{Issue: 2, ReadPorts: 4, WritePorts: 2},
		Params:  &p,
	}
}

// blocksEqual compares explored-block results under the determinism
// contract: everything except the cache counters, which are timing-and-
// partitioning-dependent observability (a resumed run skips restarts whose
// results came from the checkpoint, so its cache sees less traffic).
func blocksEqual(t *testing.T, label string, want, got []BlockResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d blocks, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		w.CacheHits, w.CacheMisses = 0, 0
		g.CacheHits, g.CacheMisses = 0, 0
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: block %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestResumeAfterDrainDeterminism is the subsystem's acceptance test: run a
// job, drain the manager mid-run (this is what SIGTERM does to the daemon),
// bring up a fresh manager on the same state directory, let the reloaded
// job finish, and require block results identical to an uninterrupted run —
// at one worker and at four.
func TestResumeAfterDrainDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		spec := heavySpec(workers)

		// Reference: uninterrupted run.
		ref := newTestManager(t, Config{Runners: 1})
		refSt, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := waitState(t, ref, refSt.ID, StateDone).Blocks

		// Interrupted run: drain as soon as restart progress appears.
		dir := t.TempDir()
		m1, err := New(Config{Runners: 1, StateDir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ch, cancelSub, err := m1.Subscribe(st.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		progressed := false
		for ev := range ch {
			if ev.Type == EventRestart {
				progressed = true
				break
			}
			if ev.Type == EventDone {
				break
			}
		}
		cancelSub()
		if !progressed {
			t.Fatalf("workers=%d: job finished before any restart event; cannot interrupt", workers)
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := m1.Drain(drainCtx); err != nil {
			t.Fatal(err)
		}
		cancel()
		mid, err := m1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if mid.State != StateQueued {
			t.Fatalf("workers=%d: job state after drain = %s, want queued", workers, mid.State)
		}
		if s, _ := dumpSeries(m1.MetricsDump(), "checkpoints_total"); s.Value != 1 {
			t.Fatalf("workers=%d: checkpoints_total = %v after the drain, want 1", workers, s.Value)
		}
		if _, serr := os.Stat(filepath.Join(dir, "job-"+st.ID+".json")); serr != nil {
			t.Fatalf("workers=%d: no checkpoint on disk: %v", workers, serr)
		}

		// Fresh manager process on the same state dir resumes the job.
		m2 := newTestManager(t, Config{Runners: 1, StateDir: dir})
		resumed, err := m2.Get(st.ID)
		if err != nil {
			t.Fatalf("workers=%d: job not reloaded: %v", workers, err)
		}
		if !resumed.Resumed {
			t.Fatalf("workers=%d: reloaded job not marked resumed", workers)
		}
		if s, _ := dumpSeries(m2.MetricsDump(), "jobs_resumed_total"); s.Value != 1 {
			t.Fatalf("workers=%d: jobs_resumed_total = %v after the reload, want 1", workers, s.Value)
		}
		got := waitState(t, m2, st.ID, StateDone)
		blocksEqual(t, "resumed vs uninterrupted", want, got.Blocks)

		// The checkpoint is gone once the job is done.
		if _, serr := os.Stat(filepath.Join(dir, "job-"+st.ID+".json")); !os.IsNotExist(serr) {
			t.Fatalf("workers=%d: checkpoint survived completion: %v", workers, serr)
		}
	}
}

// TestReloadSkipsCorruptCheckpoints: a half-broken state dir must not keep
// the manager from starting, and good checkpoints still load.
func TestReloadSkipsCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-old.json"), []byte(`{"version":99,"job_id":"old"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	m, err := New(Config{StateDir: dir, Logf: func(f string, a ...any) {
		logs = append(logs, f)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	if n := len(m.List()); n != 0 {
		t.Fatalf("%d jobs loaded from corrupt checkpoints", n)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "skipping checkpoint") {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupt checkpoints skipped silently")
	}
}

// TestStoreRoundTrip exercises the checkpoint store in isolation.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		JobID:       "abc123",
		Spec:        testSpec(1),
		SubmittedAt: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		Block:       1,
		Blocks:      []BlockResult{{Block: "b0", BaseCycles: 10, FinalCycles: 7}},
	}
	if err := s.Save(cp); err != nil {
		t.Fatal(err)
	}
	cps, errs := s.Load()
	if len(errs) != 0 {
		t.Fatalf("load errors: %v", errs)
	}
	if len(cps) != 1 || cps[0].JobID != "abc123" || cps[0].Block != 1 {
		t.Fatalf("round trip mismatch: %+v", cps)
	}
	if !reflect.DeepEqual(cps[0].Blocks, cp.Blocks) {
		t.Fatalf("blocks mismatch: %+v", cps[0].Blocks)
	}
	if err := s.Delete("abc123"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("abc123"); err != nil {
		t.Fatal("double delete should be a no-op, got", err)
	}
	if cps, _ := s.Load(); len(cps) != 0 {
		t.Fatal("checkpoint survived delete")
	}
}
