package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/prog"
)

// resultsEqual asserts the determinism contract between two results: same
// ISEs (members, options, savings), same assignment, same cycle and work
// counts. Cache counters are excluded — they are timing-dependent
// observability, not part of the contract.
func resultsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.BaseCycles != want.BaseCycles || got.FinalCycles != want.FinalCycles {
		t.Fatalf("%s: cycles %d→%d, want %d→%d",
			label, got.BaseCycles, got.FinalCycles, want.BaseCycles, want.FinalCycles)
	}
	if got.Rounds != want.Rounds || got.Iterations != want.Iterations || got.CappedRounds != want.CappedRounds {
		t.Fatalf("%s: rounds/iterations/capped %d/%d/%d, want %d/%d/%d",
			label, got.Rounds, got.Iterations, got.CappedRounds, want.Rounds, want.Iterations, want.CappedRounds)
	}
	if len(got.ISEs) != len(want.ISEs) {
		t.Fatalf("%s: %d ISEs, want %d", label, len(got.ISEs), len(want.ISEs))
	}
	for i := range want.ISEs {
		if !reflect.DeepEqual(iseState(want.ISEs[i]), iseState(got.ISEs[i])) {
			t.Fatalf("%s: ISE %d differs: %v vs %v", label, i, got.ISEs[i], want.ISEs[i])
		}
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Fatalf("%s: assignments differ", label)
	}
}

// runInterrupted drives an exploration to completion through a chain of
// deliberately-too-short deadlines: the first attempt gets no time at all,
// and each subsequent resume gets a slightly larger budget, so the run is
// interrupted at whatever point the deadline happens to land — between
// restarts, between rounds, or mid-round between convergence iterations.
// Every snapshot is round-tripped through JSON, exactly as the service
// layer's checkpoint store does.
func runInterrupted(t *testing.T, d *dfg.DFG, cfg machine.Config, p Params) (*Result, int, int) {
	t.Helper()
	var snap *Snapshot
	resumes, midRound := 0, 0
	for attempt := 0; attempt <= 400; attempt++ {
		budget := time.Duration(attempt) * 50 * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		var (
			res *Result
			err error
		)
		if snap == nil {
			res, snap, err = ExploreResumable(ctx, d, cfg, p, ResumeOptions{})
		} else {
			resumes++
			res, snap, err = ResumeFrom(ctx, d, cfg, snap, ResumeOptions{})
		}
		cancel()
		if res != nil {
			return res, resumes, midRound
		}
		if err == nil {
			t.Fatal("nil result with nil error")
		}
		if snap == nil {
			t.Fatalf("interrupted without a snapshot: %v", err)
		}
		for _, st := range snap.Restarts {
			if st.Partial != nil && st.Partial.Iter > 0 {
				midRound++
			}
		}
		// Round-trip the checkpoint through its wire format.
		raw, jerr := json.Marshal(snap)
		if jerr != nil {
			t.Fatalf("marshal snapshot: %v", jerr)
		}
		snap = new(Snapshot)
		if jerr := json.Unmarshal(raw, snap); jerr != nil {
			t.Fatalf("unmarshal snapshot: %v", jerr)
		}
	}
	t.Fatal("exploration did not finish within the attempt budget")
	return nil, 0, 0
}

// TestResumeDeterminism is the end-to-end acceptance test: interrupt an
// exploration at arbitrary points, resume from the (JSON round-tripped)
// snapshot until it completes, and require the final Result to be
// byte-identical to the uninterrupted run — at one worker and at four.
func TestResumeDeterminism(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 14) })
	cfg := machine.New(2, 4, 2)
	for _, workers := range []int{1, 4} {
		p := DefaultParams()
		p.Workers = workers
		want, err := Explore(context.Background(), d, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		got, resumes, midRound := runInterrupted(t, d, cfg, p)
		t.Logf("workers=%d: finished after %d resumes (%d mid-round checkpoints)",
			workers, resumes, midRound)
		if resumes == 0 {
			t.Fatalf("workers=%d: run was never interrupted — test proved nothing", workers)
		}
		resultsEqual(t, "interrupted vs uninterrupted", want, got)
	}
}

// TestResumeAtRestartBoundary interrupts deterministically: cancel as soon
// as the first restart finishes, then resume once with no deadline.
func TestResumeAtRestartBoundary(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 10) })
	cfg := machine.New(2, 6, 3)
	p := FastParams()
	p.Restarts = 4
	p.Workers = 2
	want, err := Explore(context.Background(), d, cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, snap, err := ExploreResumable(ctx, d, cfg, p, ResumeOptions{
		OnRestartDone: func(RestartEvent) { cancel() },
	})
	if res != nil {
		// All restarts can finish before cancellation lands; nothing to
		// resume, but the result must still match.
		resultsEqual(t, "uncancelled", want, res)
		return
	}
	if err == nil || snap == nil {
		t.Fatalf("cancelled run: res=%v snap=%v err=%v", res, snap, err)
	}
	if snap.CompletedRestarts() == 0 {
		t.Fatal("cancelled after a restart finished, but snapshot has none done")
	}
	got, snap2, err := ResumeFrom(context.Background(), d, cfg, snap, ResumeOptions{})
	if err != nil || snap2 != nil {
		t.Fatalf("resume: err=%v snap=%v", err, snap2)
	}
	resultsEqual(t, "restart-boundary resume", want, got)
}

// TestCancelAfterLastRestartKeepsResult cancels the run from the last
// restart's OnRestartDone: every restart has its result, so the run must
// return the uncancelled run's result with no snapshot and no error, at one
// worker and at three.
func TestCancelAfterLastRestartKeepsResult(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 10) })
	cfg := machine.New(2, 4, 2)
	for _, workers := range []int{1, 3} {
		p := FastParams()
		p.Restarts = 3
		p.Workers = workers
		want, err := Explore(context.Background(), d, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		res, snap, err := ExploreResumable(ctx, d, cfg, p, ResumeOptions{
			OnRestartDone: func(ev RestartEvent) {
				if ev.Completed == ev.Total {
					cancel()
				}
			},
		})
		cancel()
		if res == nil || snap != nil || err != nil {
			t.Fatalf("workers=%d: cancelled after the last restart: res=%v snap=%v err=%v", workers, res, snap, err)
		}
		resultsEqual(t, "cancelled after the last restart", want, res)
	}
}

// TestResumeAllDoneUnderCancelledContext resumes a snapshot whose every
// restart is done under an already-cancelled context: there is nothing left
// to run, so the resume must return the uncancelled run's result with no
// snapshot and no error.
func TestResumeAllDoneUnderCancelledContext(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 10) })
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 3
	want, err := Explore(context.Background(), d, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Version: SnapshotVersion, DFG: d.Name, Nodes: d.Len(), Machine: cfg.Name,
		Params: p, BaseCycles: want.BaseCycles}
	for r := 0; r < p.Restarts; r++ {
		// Restart r on its own: one restart seeded as the run seeds r.
		one := p
		one.Restarts = 1
		one.Seed = p.Seed + int64(r)*miKind.stride
		res, err := Explore(context.Background(), d, cfg, one)
		if err != nil {
			t.Fatal(err)
		}
		snap.Restarts = append(snap.Restarts, RestartState{Seed: one.Seed, Done: resultState(res)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, snap2, err := ResumeFrom(ctx, d, cfg, snap, ResumeOptions{})
	if res == nil || snap2 != nil || err != nil {
		t.Fatalf("all-done resume under a cancelled context: res=%v snap=%v err=%v", res, snap2, err)
	}
	resultsEqual(t, "all-done resume", want, res)
}

// TestResumeEventsProgress checks the progress stream: Completed climbs to
// Total, and a resumed run reports restarts restored from the snapshot in
// its Completed counts.
func TestResumeEventsProgress(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 8) })
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 3
	p.Workers = 1

	var events []RestartEvent
	res, snap, err := ExploreResumable(context.Background(), d, cfg, p, ResumeOptions{
		OnRestartDone: func(ev RestartEvent) { events = append(events, ev) },
	})
	if err != nil || snap != nil || res == nil {
		t.Fatalf("res=%v snap=%v err=%v", res, snap, err)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Total != 3 {
			t.Fatalf("event %d: Total = %d, want 3", i, ev.Total)
		}
		if ev.Completed != i+1 {
			t.Fatalf("event %d: Completed = %d, want %d", i, ev.Completed, i+1)
		}
		if ev.FinalCycles <= 0 {
			t.Fatalf("event %d: FinalCycles = %d", i, ev.FinalCycles)
		}
	}
}

// TestResumeFromValidation rejects snapshots that do not belong to the run.
func TestResumeFromValidation(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 8) })
	other := blockDFG(t, func(b *prog.Builder) { logicChain(b, 9) })
	cfg := machine.New(2, 4, 2)
	p := FastParams()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, snap, err := ExploreResumable(ctx, d, cfg, p, ResumeOptions{})
	if err == nil || snap == nil {
		t.Fatalf("expected interrupted run, got err=%v snap=%v", err, snap)
	}

	if _, _, err := ResumeFrom(context.Background(), other, cfg, snap, ResumeOptions{}); err == nil {
		t.Fatal("resume against a different DFG succeeded")
	}
	if _, _, err := ResumeFrom(context.Background(), d, machine.New(4, 8, 4), snap, ResumeOptions{}); err == nil {
		t.Fatal("resume against a different machine succeeded")
	}
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, _, err := ResumeFrom(context.Background(), d, cfg, &bad, ResumeOptions{}); err == nil {
		t.Fatal("resume with a wrong version succeeded")
	}
	if _, _, err := ResumeFrom(context.Background(), d, cfg, nil, ResumeOptions{}); err == nil {
		t.Fatal("resume with a nil snapshot succeeded")
	}
}
