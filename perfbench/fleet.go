package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
)

// fleetWorkers is the number of cluster workers attached to the coordinator.
const fleetWorkers = 2

// fleetEnv is an in-process iseserve coordinator with cluster workers on
// loopback, wired as cmd/iseserve wires them.
type fleetEnv struct {
	base    string
	client  *http.Client
	mgr     *service.Manager
	srv     *http.Server
	stop    context.CancelFunc
	workers sync.WaitGroup

	// refs caches the single-node reference answer per spec.
	refs map[fleetOp][]service.BlockResult
}

// jobSpec is the POST /v1/jobs body of an op: the service's default
// exploration parameters on one worker per shard, two shards.
func jobSpec(f fleetOp, bm, opt string) service.JobSpec {
	p := core.DefaultParams()
	p.Seed = f.Seed
	p.Workers = 1
	c := machine.Configs()[f.Machine]
	return service.JobSpec{
		Name:        "perfbench",
		Bench:       bm,
		OptLevel:    opt,
		Hot:         1,
		Machine:     service.MachineSpec{Issue: c.IssueWidth, ReadPorts: c.ReadPorts, WritePorts: c.WritePorts},
		Params:      &p,
		Distributed: &service.DistributedSpec{Shards: 2},
	}
}

// setupFleet starts the fleet and runs warm-up jobs on crc32/O3 and
// jpeg/O3, whose DFGs share no entries with the timed adpcm jobs in the
// remote eval cache.
func setupFleet(ctx context.Context) (env, error) {
	coord := cluster.NewCoordinator(cluster.Options{})
	mgr, err := service.New(service.Config{Coordinator: coord, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	mux := service.NewMux(mgr)
	cluster.Mount(mux, coord)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Drain(ctx)
		return nil, err
	}
	wctx, stop := context.WithCancel(context.Background())
	e := &fleetEnv{
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{},
		mgr:    mgr,
		srv:    &http.Server{Handler: mux},
		stop:   stop,
		refs:   map[fleetOp][]service.BlockResult{},
	}
	go func() { _ = e.srv.Serve(ln) }()
	for k := 0; k < fleetWorkers; k++ {
		w := cluster.NewWorker(cluster.WorkerOptions{Coordinator: e.base, Poll: 2 * time.Millisecond, Client: e.client})
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			_ = w.Run(wctx)
		}()
	}
	for _, k := range []string{"crc32", "jpeg"} {
		if _, err := e.job(ctx, jobSpec(fleetOp{Machine: 0, Seed: 1}, k, "O3"), -1, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up job on %s: %w", k, err)
		}
	}
	return e, nil
}

func (e *fleetEnv) close() {
	e.stop()
	e.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.mgr.Drain(ctx)
	_ = e.srv.Shutdown(ctx)
	e.client.CloseIdleConnections()
}

func (e *fleetEnv) run(ctx context.Context, i int, o op, rec *recorder) (*result, error) {
	st, err := e.job(ctx, jobSpec(*o.Fleet, "adpcm", "O3"), i, rec)
	if err != nil {
		return nil, err
	}
	if len(st.Blocks) == 0 {
		return nil, errors.New("job finished without block results")
	}
	var b strings.Builder
	red := 0.0
	for _, br := range st.Blocks {
		red += br.Reduction
		fmt.Fprintf(&b, "%s ", blockKey(br))
	}
	return &result{reduction: 100 * red / float64(len(st.Blocks)), fingerprint: b.String(), detail: st}, nil
}

// job submits one job over HTTP, follows its event stream until the job
// reaches a terminal state and returns the final status.
func (e *fleetEnv) job(ctx context.Context, spec service.JobSpec, i int, rec *recorder) (*service.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var sub service.JobStatus
	s := rec.begin("service.submit", i, -1, true)
	err = e.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &sub)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	w := rec.begin("service.wait", i, -1, false)
	err = e.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil, http.StatusOK, nil)
	rec.end(w)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	g := rec.begin("service.status", i, -1, true)
	err = e.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil, http.StatusOK, &st)
	rec.end(g)
	if err != nil {
		return nil, err
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		rec.add("service.queue_wait", i, w, st.SubmittedAt, *st.StartedAt, true)
		rec.add("service.run", i, w, *st.StartedAt, *st.FinishedAt, true)
	}
	return &st, nil
}

// call issues one request and decodes a JSON answer into out; with out nil
// it reads the body to its end (an SSE stream ends with its job).
func (e *fleetEnv) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// blockKey renders every determinism-covered field of a block result.
func blockKey(b service.BlockResult) string {
	b.CacheHits, b.CacheMisses = 0, 0
	j, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return string(j)
}

// check compares the job's block results with a single-node core run of the
// same spec. In a traced run the reference is re-enacted layer by layer
// (profile, DFG build, base schedule, exploration) and recorded as probe
// spans.
func (e *fleetEnv) check(ctx context.Context, i int, o op, r *result, rec *recorder) error {
	st := r.detail.(*service.JobStatus)
	spec := *o.Fleet
	spec.Repeat = false
	ref, ok := e.refs[spec]
	if !ok || rec != nil {
		var err error
		if ref, err = reference(ctx, spec, i, rec); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		e.refs[spec] = ref
	}
	if len(ref) != len(st.Blocks) {
		return fmt.Errorf("job has %d blocks, reference %d", len(st.Blocks), len(ref))
	}
	for k := range ref {
		if got, want := blockKey(st.Blocks[k]), blockKey(ref[k]); got != want {
			return fmt.Errorf("block %d differs from the single-node run:\n job %s\n ref %s", k, got, want)
		}
	}
	return nil
}

// reference explores the job's hot block on this node with the job's
// parameters (the worker count is outside the determinism contract, so it
// uses every CPU) and renders it as the service does.
func reference(ctx context.Context, f fleetOp, i int, rec *recorder) ([]service.BlockResult, error) {
	spec := jobSpec(f, "adpcm", "O3")
	p := *spec.Params
	p.Workers = 0
	cfg := machine.Configs()[f.Machine]
	bm, err := bench.Get(spec.Bench, spec.OptLevel)
	if err != nil {
		return nil, err
	}
	s := rec.begin("vm.profile", i, -1, false)
	prof, err := bm.Run()
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("dfg.build", i, -1, false)
	ds := dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, spec.Hot), prof.BlockCounts)
	rec.end(s)
	var ref []service.BlockResult
	for _, d := range ds {
		rec.count("dfg.hot_nodes", float64(d.Len()))
		s = rec.begin("sched.base", i, -1, false)
		_, err := sched.NewScheduler().Schedule(d, sched.AllSoftware(d.Len()), cfg)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		rec.count("sched.calls", 1)
		cache := core.NewEvalCache()
		s = rec.begin("core.explore", i, -1, false)
		res, _, err := core.ExploreResumable(ctx, d, cfg, p, core.ResumeOptions{Cache: cache})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		hits, misses := cache.Stats()
		rec.count("core.evalcache_hits", float64(hits))
		rec.count("core.evalcache_misses", float64(misses))
		ref = append(ref, wireBlock(d, res))
	}
	return ref, nil
}

// wireBlock is the service's wire form of one block's result.
func wireBlock(d *dfg.DFG, r *core.Result) service.BlockResult {
	b := service.BlockResult{
		Block: d.Name, Ops: d.Len(), Weight: int64(d.Weight),
		BaseCycles: r.BaseCycles, FinalCycles: r.FinalCycles, Reduction: r.Reduction(),
		Rounds: r.Rounds, Iterations: r.Iterations,
	}
	for _, x := range r.ISEs {
		b.ISEs = append(b.ISEs, service.ISESummary{
			Ops: x.Size(), Nodes: x.Nodes.Values(), Cycles: x.Cycles, DelayNS: x.DelayNS,
			AreaUM2: x.AreaUM2, In: x.In, Out: x.Out, SavingCycles: x.SavingCycles,
		})
	}
	return b
}

// clusterCounters reads the coordinator's shard and remote-cache counters
// from GET /metrics?format=dump.
func (e *fleetEnv) clusterCounters(ctx context.Context) (map[string]float64, error) {
	var d obs.RegistryDump
	if err := e.call(ctx, http.MethodGet, "/metrics?format=dump", nil, http.StatusOK, &d); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range d.Families {
		for _, s := range f.Series {
			out[f.Name] += s.Value
		}
	}
	return out, nil
}
