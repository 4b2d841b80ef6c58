package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// rpcTap sits in front of the coordinator's RPC surface and records the
// trace context of every claim that handed out a shard and the raw body of
// every result RPC.
type rpcTap struct {
	next http.Handler

	mu      sync.Mutex
	claims  []obs.TraceContext // guarded by mu
	results [][]byte           // guarded by mu
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (p *rpcTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/result") {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		p.mu.Lock()
		p.results = append(p.results, body)
		p.mu.Unlock()
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	p.next.ServeHTTP(sw, r)
	if r.URL.Path == "/v1/shards/claim" && sw.code == http.StatusOK {
		p.mu.Lock()
		p.claims = append(p.claims, obs.TraceContextFromHeader(w.Header()))
		p.mu.Unlock()
	}
}

// take returns and clears what the tap recorded so far.
func (p *rpcTap) take() ([]obs.TraceContext, [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	claims, results := p.claims, p.results
	p.claims, p.results = nil, nil
	return claims, results
}

// TestTraceSidecarOnlyForTracedJobs pins the DESIGN.md §16 propagation
// contract over real loopback workers: an untraced job's claims carry no
// trace context and its results no trace or clock sidecar (the flight
// journal still rides every result), while a traced job's claims carry
// the job's context and its merged trace holds the coordinator's dispatch
// spans plus the workers' restart tracks. Both answer byte-identically to
// the single-node run.
func TestTraceSidecarOnlyForTracedJobs(t *testing.T) {
	wl := testWorkload(4, 1)
	want := stateJSON(t, singleNode(t, wl, 0))
	tap := &rpcTap{}
	coord := startFleet(t, func(h http.Handler) http.Handler {
		tap.next = h
		return tap
	}, t.Logf, "a", "b")

	fields := func(body []byte) map[string]json.RawMessage {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("result body is not a JSON object: %v\n%s", err, body)
		}
		return m
	}

	res, err := coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, res); got != want {
		t.Fatalf("untraced fleet result diverged from single node:\n got %s\nwant %s", got, want)
	}
	claims, results := tap.take()
	if len(claims) < 2 || len(results) < 2 {
		t.Fatalf("untraced job: %d claims and %d results, want >= 2 each", len(claims), len(results))
	}
	for i, tc := range claims {
		if tc.Valid() {
			t.Fatalf("untraced job: claim %d carried trace context %+v", i, tc)
		}
	}
	for i, body := range results {
		m := fields(body)
		if _, ok := m["trace"]; ok {
			t.Fatalf("untraced job: result %d carries a trace sidecar", i)
		}
		if _, ok := m["clock"]; ok {
			t.Fatalf("untraced job: result %d carries a clock sidecar", i)
		}
		if _, ok := m["flight"]; !ok {
			t.Fatalf("untraced job: result %d lost its flight journal", i)
		}
	}

	tr := obs.NewTracer()
	res, err = coord.ExploreBlock(context.Background(), wl, 0, BlockOptions{Shards: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, res); got != want {
		t.Fatalf("traced fleet result diverged from single node:\n got %s\nwant %s", got, want)
	}
	claims, results = tap.take()
	if len(claims) < 2 || len(results) < 2 {
		t.Fatalf("traced job: %d claims and %d results, want >= 2 each", len(claims), len(results))
	}
	for i, tc := range claims {
		if !tc.Valid() || !strings.HasPrefix(tc.ParentSpan, "shard-") {
			t.Fatalf("traced job: claim %d carried trace context %+v", i, tc)
		}
	}
	for i, body := range results {
		m := fields(body)
		if _, ok := m["trace"]; !ok {
			t.Fatalf("traced job: result %d has no trace sidecar", i)
		}
		if _, ok := m["clock"]; !ok {
			t.Fatalf("traced job: result %d has no clock sidecar", i)
		}
	}

	doc := parseTrace(t, tr)
	workers := map[int]bool{}
	dispatch, restartTracks := 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "worker ") {
				workers[ev.PID] = true
			}
		case ev.PID == 0 && ev.Ph == "X" && ev.Name == "shard":
			dispatch++
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && workers[ev.PID] {
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "restart ") {
				restartTracks++
			}
		}
	}
	if dispatch != 2 {
		t.Fatalf("merged trace has %d coordinator dispatch spans, want 2", dispatch)
	}
	if len(workers) == 0 || restartTracks == 0 {
		t.Fatalf("merged trace has %d worker processes with %d restart tracks, want >= 1 each",
			len(workers), restartTracks)
	}
}
