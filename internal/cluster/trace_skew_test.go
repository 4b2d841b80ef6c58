package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// traceDoc is the parsed Chrome trace-event JSON a merged tracer writes.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func parseTrace(t *testing.T, tr *obs.Tracer) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	return doc
}

// TestMergedTraceClockSkew is the end-to-end clock-offset story (DESIGN.md
// §16): two fake workers whose clocks disagree with the coordinator by
// seconds in opposite directions each deliver a shard result carrying
// skewed span timestamps plus their measured ClockState. The coordinator
// must rebase both uploads onto its own timeline — negated offset, clamped
// into each shard's dispatch window — so the merged trace is monotone and
// every worker span nests inside its shard's dispatch span, nowhere near
// the window edges a sign error would clamp it to.
func TestMergedTraceClockSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("claim→result windows use real sleeps")
	}
	wl := testWorkload(4, 1)
	dfgs, err := wl.BuildDFGs()
	if err != nil {
		t.Fatal(err)
	}
	// Precompute each shard's answer the way a worker would, so the
	// claim→result window below contains only controlled sleeps.
	shardState := func(first, n int) *core.ResultState {
		spec := ShardSpec{FirstRestart: first, Restarts: n, Workload: wl}
		r, err := core.Explore(t.Context(), dfgs[0], wl.MachineConfig(), spec.shardParams())
		if err != nil {
			t.Fatal(err)
		}
		return r.State()
	}
	states := []*core.ResultState{shardState(0, 2), shardState(2, 2)}

	coord := NewCoordinator(Options{Logf: t.Logf})
	tr := obs.NewTracer()
	fl := obs.NewFlight(0)
	resCh := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{
			Shards: 2, Trace: tr, Flight: fl,
		})
		resCh <- r
		errCh <- err
	}()

	// The two fake workers: east's clock runs 5s ahead of the coordinator,
	// west's 3s behind. OffsetMicros is worker − coordinator, exactly what a
	// ClockSync accumulates on the worker.
	workers := []struct {
		name string
		skew time.Duration
	}{
		{"east", 5 * time.Second},
		{"west", -3 * time.Second},
	}
	const window = 300 * time.Millisecond

	for i, wk := range workers {
		var env *ShardEnvelope
		var tc obs.TraceContext
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if e, c, ok := coord.Claim(claimRequest{Worker: wk.name}); ok {
				env, tc = e, c
				break
			}
			time.Sleep(time.Millisecond)
		}
		if env == nil {
			t.Fatalf("worker %s: shard never became claimable", wk.name)
		}
		if env.Spec.Shard != i {
			t.Fatalf("worker %s claimed shard %d, want %d", wk.name, env.Spec.Shard, i)
		}
		if !tc.Valid() {
			t.Fatalf("worker %s: claim carried no trace context", wk.name)
		}
		if want := fmt.Sprintf("shard-%d-try-0", i); tc.TraceID == "" || tc.ParentSpan != want {
			t.Fatalf("worker %s: trace context = %+v, want parent span %q", wk.name, tc, want)
		}
		claimWall := time.Now()
		// Fabricated worker-side trace: the epoch is the worker's own
		// (skewed) clock reading shortly after the claim; one shard span
		// with a nested restart track, 10ms..60ms into the shard.
		exp := obs.TraceExport{
			StartUnixMicros: claimWall.Add(wk.skew).Add(10 * time.Millisecond).UnixMicro(),
			Events: []obs.TraceEvent{
				{Name: "worker shard", Ph: "X", Ts: 0, Dur: 50_000, TID: 0},
				{Name: "restart", Ph: "X", Ts: 5_000, Dur: 20_000, TID: 1},
			},
			Tracks: map[int]string{1: "restart 0"},
		}
		series := []obs.FlightSample{{Kind: obs.FlightRound, Restart: 0, Round: 0, Value: 42}}
		time.Sleep(window) // keep the dispatch window wide open around the spans
		err := coord.Result(env.Spec.Job, env.Spec.Shard, resultRequest{
			Worker: wk.name,
			Result: states[i],
			Trace:  &exp,
			Clock:  &obs.ClockState{OffsetMicros: wk.skew.Microseconds(), Samples: 1},
			Flight: series,
		}, tc)
		if err != nil {
			t.Fatalf("worker %s result: %v", wk.name, err)
		}
	}

	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got, want := stateJSON(t, res), stateJSON(t, singleNode(t, wl, 0)); got != want {
		t.Fatalf("fleet result diverged from single node:\n got %s\nwant %s", got, want)
	}

	doc := parseTrace(t, tr)
	// Worker process rows: pid = 1 + registration order, named by Import.
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID], _ = ev.Args["name"].(string)
		}
	}
	if procs[1] != "worker east" || procs[2] != "worker west" {
		t.Fatalf("process rows = %v, want pid 1 %q and pid 2 %q", procs, "worker east", "worker west")
	}

	// Monotone merged timeline (WriteJSON sorts; this pins the contract).
	last := int64(-1 << 62)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < last {
			t.Fatalf("merged trace is not monotone: event %q at %d after %d", ev.Name, ev.Ts, last)
		}
		last = ev.Ts
	}

	// Every worker span must nest inside its shard's dispatch span on pid 0,
	// and sit well clear of the window's edges: a rebase with the wrong
	// offset sign would land seconds outside and be clamped flat against a
	// bound, which the margin check catches.
	dispatch := map[int][2]int64{} // shard index -> [ts, end] of the pid-0 dispatch span
	for _, ev := range doc.TraceEvents {
		if ev.PID == 0 && ev.Name == "shard" {
			sh, ok := ev.Args["shard"].(float64)
			if !ok {
				t.Fatalf("dispatch span without shard arg: %+v", ev)
			}
			dispatch[int(sh)] = [2]int64{ev.Ts, ev.Ts + ev.Dur}
		}
	}
	if len(dispatch) != 2 {
		t.Fatalf("found %d dispatch spans, want 2", len(dispatch))
	}
	margin := (100 * time.Millisecond).Microseconds()
	checked := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID == 0 {
			continue
		}
		win := dispatch[ev.PID-1] // east=pid1=shard0, west=pid2=shard1
		if ev.Ts < win[0] || ev.Ts+ev.Dur > win[1] {
			t.Fatalf("worker span %q pid %d [%d,%d] escapes dispatch window [%d,%d]",
				ev.Name, ev.PID, ev.Ts, ev.Ts+ev.Dur, win[0], win[1])
		}
		if ev.Ts+ev.Dur > win[1]-margin {
			t.Fatalf("worker span %q pid %d ends at %d, clamped against window end %d — offset applied with the wrong sign?",
				ev.Name, ev.PID, ev.Ts+ev.Dur, win[1])
		}
		checked++
	}
	if checked != 4 {
		t.Fatalf("checked %d worker spans, want 4", checked)
	}

	// The journal: shard lifecycle events from the coordinator plus the
	// workers' round samples rebased to global restart indices (east shard 0
	// keeps restart 0; west shard 1 rebases 0 -> 2).
	series := fl.Series()
	want := map[string]bool{}
	for _, s := range series {
		switch s.Kind {
		case obs.FlightShard:
			want[fmt.Sprintf("%s/%d/%s", s.Kind, s.Restart, s.Label)] = true
		case obs.FlightRound:
			if s.Value != 42 {
				t.Fatalf("round sample value %v, want 42", s.Value)
			}
			want[fmt.Sprintf("%s/%d", s.Kind, s.Restart)] = true
		}
	}
	for _, key := range []string{
		"shard/0/claim", "shard/1/claim", "shard/0/done", "shard/1/done",
		"round/0", "round/2",
	} {
		if !want[key] {
			t.Fatalf("journal is missing %q; have %+v", key, series)
		}
	}
}

// TestFlightSeriesSurvivesKillResume pins the determinism half of the
// flight-recorder contract at fleet scope: the convergence ("round") series
// of a distributed job whose worker was killed mid-shard and whose shard
// was re-dispatched from a snapshot is byte-identical to the series a
// single uninterrupted process records. Timing-dependent kinds (cache,
// delta, shard lifecycle) are explicitly outside the comparison.
func TestFlightSeriesSurvivesKillResume(t *testing.T) {
	wl := testWorkload(6, 1)
	dfgs, err := wl.BuildDFGs()
	if err != nil {
		t.Fatal(err)
	}
	ref := obs.NewFlight(0)
	if _, _, err := core.ExploreResumable(t.Context(), dfgs[0], wl.MachineConfig(), wl.Params,
		core.ResumeOptions{Flight: ref}); err != nil {
		t.Fatal(err)
	}
	want := roundJSON(t, ref.Series())
	if want == "null" || want == "[]" {
		t.Fatal("reference run recorded no round samples")
	}

	clk := newFakeClock()
	coord, url := startCoordinator(t, Options{
		Now:        clk.Now,
		Lease:      time.Minute,
		sweepEvery: 5 * time.Millisecond,
	})
	fl := obs.NewFlight(0)
	resCh := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{Shards: 2, Flight: fl})
		resCh <- r
		errCh <- err
	}()

	// Worker A checkpoints once, dies; after the lease lapses worker B
	// resumes both its own claims and A's snapshot.
	actx, killA := context.WithCancel(context.Background())
	defer killA()
	beat := make(chan struct{})
	var beatOnce bool
	doneA := startWorker(actx, WorkerOptions{
		Coordinator:     url,
		Name:            "A",
		Poll:            time.Millisecond,
		CheckpointEvery: time.Millisecond,
		Logf:            t.Logf,
		onBeat: func(s *core.Snapshot) {
			if !beatOnce {
				beatOnce = true
				killA()
				close(beat)
			}
		},
	})
	<-beat
	<-doneA

	clk.Advance(2 * time.Minute)
	bctx, stopB := context.WithCancel(context.Background())
	defer stopB()
	doneB := startWorker(bctx, WorkerOptions{
		Coordinator: url,
		Name:        "B",
		Poll:        time.Millisecond,
		Logf:        t.Logf,
	})

	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	stopB()
	<-doneB

	if got, want := stateJSON(t, res), stateJSON(t, singleNode(t, wl, 0)); got != want {
		t.Fatalf("killed fleet result diverged from single node:\n got %s\nwant %s", got, want)
	}
	if got := roundJSON(t, fl.Series()); got != want {
		t.Fatalf("round series diverged across kill/resume:\n got %s\nwant %s", got, want)
	}
}

// roundJSON renders the deterministic convergence samples of a journal —
// kind "round" only — for byte-for-byte comparison.
func roundJSON(t *testing.T, series []obs.FlightSample) string {
	t.Helper()
	var rounds []obs.FlightSample
	for _, s := range series {
		if s.Kind == obs.FlightRound {
			rounds = append(rounds, s)
		}
	}
	b, err := json.Marshal(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
