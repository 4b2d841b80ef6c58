package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// testWorkload is a small, fast job: the crc32 hot block with reduced-effort
// parameters (the same kernel the service-layer tests use).
func testWorkload(restarts, workers int) Workload {
	p := core.FastParams()
	p.Restarts = restarts
	p.Workers = workers
	return Workload{
		Name:    "t",
		Bench:   "crc32",
		Machine: MachineSpec{Issue: 2, ReadPorts: 4, WritePorts: 2},
		Params:  p,
	}
}

// singleNode is the reference answer: the ordinary one-process exploration
// of the workload's block. Every fleet configuration must reproduce it
// byte-identically.
func singleNode(t *testing.T, wl Workload, block int) *core.Result {
	t.Helper()
	dfgs, err := wl.BuildDFGs()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Explore(t.Context(), dfgs[block], wl.MachineConfig(), wl.Params)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stateJSON renders a result's determinism-covered surface (core.ResultState:
// ISEs, options, cycles, work counters — cache counters excluded) for
// byte-for-byte comparison.
func stateJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.Marshal(r.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startCoordinator mounts a coordinator's RPC surface on a loopback server.
func startCoordinator(t *testing.T, opts Options) (*Coordinator, string) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c := NewCoordinator(opts)
	mux := http.NewServeMux()
	Mount(mux, c)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv.URL
}

// rpcClient issues the test workers' RPCs. Workers default to
// http.DefaultClient, which never times out; every coordinator RPC answers
// at once (a claim does not wait for work), so a bounded exchange turns a
// stuck RPC into a failed call within seconds instead of a test binary that
// runs to its timeout.
var rpcClient = &http.Client{Timeout: 10 * time.Second}

// startWorker runs a worker until ctx cancels; the returned channel closes
// when its loop exits. Tests must drain it before returning (the worker logs
// through t.Logf). A worker without a client gets rpcClient.
func startWorker(ctx context.Context, opts WorkerOptions) <-chan struct{} {
	if opts.Client == nil {
		opts.Client = rpcClient
	}
	done := make(chan struct{})
	w := NewWorker(opts)
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	return done
}

// awaitBeat waits until worker A, which kills itself from its first
// checkpoint heartbeat, has done so and exited. A's slices end at its first
// finished restart (endSliceOnRestart), so with more restarts than workers
// A always checkpoints before the shard is done. Should A still finish the
// whole job inside its first slice, there is no snapshot to resume from,
// and the test fails at once instead of waiting for a heartbeat that cannot
// come.
func awaitBeat(t *testing.T, beat <-chan struct{}, jobDone <-chan *core.Result, killA context.CancelFunc, doneA <-chan struct{}) {
	t.Helper()
	select {
	case <-beat:
		<-doneA
	case <-jobDone:
		killA()
		<-doneA
		t.Fatal("worker A finished the job inside its first time slice and never checkpointed; nothing was killed mid-shard")
	}
}

// startFleet mounts a fresh coordinator on a loopback server, its mux
// wrapped by wrap when non-nil, and attaches one real Worker per name. The
// workers are stopped and drained before the server closes. logf receives
// both sides' log lines (nil: discard).
func startFleet(tb testing.TB, wrap func(http.Handler) http.Handler, logf func(string, ...any), names ...string) *Coordinator {
	tb.Helper()
	c := NewCoordinator(Options{Logf: logf})
	mux := http.NewServeMux()
	Mount(mux, c)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	tb.Cleanup(srv.Close)
	ctx, stop := context.WithCancel(context.Background())
	dones := make([]<-chan struct{}, len(names))
	for i, name := range names {
		dones[i] = startWorker(ctx, WorkerOptions{
			Coordinator: srv.URL, Name: name, Poll: 2 * time.Millisecond, Logf: logf,
		})
	}
	tb.Cleanup(func() {
		stop()
		for _, d := range dones {
			<-d
		}
	})
	return c
}
