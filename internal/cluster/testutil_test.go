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

// startWorker runs a worker until ctx cancels; the returned channel closes
// when its loop exits. Tests must drain it before returning (the worker logs
// through t.Logf).
func startWorker(ctx context.Context, opts WorkerOptions) <-chan struct{} {
	done := make(chan struct{})
	w := NewWorker(opts)
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	return done
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
