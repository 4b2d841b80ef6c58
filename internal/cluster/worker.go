package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/obs"
)

// WorkerOptions parameterize a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:9090".
	Coordinator string
	// Name identifies this worker to the coordinator (lease ownership).
	// Default: "w<pid>-<n>", unique within the process.
	Name string
	// CheckpointEvery is the shard time-slice length: the worker interrupts
	// its exploration this often to heartbeat and upload a resume snapshot
	// (default 2s). Must be well under the coordinator's lease.
	CheckpointEvery time.Duration
	// Poll is the idle claim-poll interval (default 250ms).
	Poll time.Duration
	// Client issues the worker's RPCs (default http.DefaultClient).
	Client *http.Client
	// MetricsURL advertises this worker's Prometheus /metrics endpoint to
	// the coordinator's fleet registry (served back to the
	// /v1/fleet/metrics aggregator). Empty: the worker is registered but
	// not scraped.
	MetricsURL string
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// onClaim and onBeat are test seams: onClaim observes each claimed
	// envelope before the shard runs; onBeat observes each successful
	// heartbeat's uploaded snapshot. Both may cancel the worker's context to
	// simulate mid-shard death.
	onClaim func(*ShardEnvelope)
	onBeat  func(*core.Snapshot)

	// now supplies the wall clock the clock-offset estimator samples
	// (default time.Now; injectable so skew tests fake a worker clock).
	// Observability only — never consulted for exploration decisions.
	now func() time.Time
}

var workerSeq atomic.Int64

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = fmt.Sprintf("w%d-%d", os.Getpid(), workerSeq.Add(1))
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 2 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Worker pulls shards from a coordinator and runs them with the ordinary
// single-node exploration entrypoints: a claimed shard is explored with its
// rebased parameters (ShardSpec.shardParams) — or resumed from the envelope's
// snapshot — in time slices, heartbeating a fresh snapshot after each slice
// so the coordinator can re-dispatch the shard if this worker dies. The
// worker's scratch arenas persist across shards, so warmup is paid once per
// worker per fleet membership, not once per shard.
type Worker struct {
	opts    WorkerOptions
	scratch *core.Scratch
	// clock estimates this worker's offset against the coordinator clock
	// from every shard RPC exchange; its state ships with shard results so
	// the coordinator can rebase the worker's spans (DESIGN.md §16).
	clock *obs.ClockSync
}

// NewWorker builds a worker against opts.Coordinator.
func NewWorker(opts WorkerOptions) *Worker {
	return &Worker{opts: opts.withDefaults(), scratch: core.NewScratch(), clock: &obs.ClockSync{}}
}

// Run claims and executes shards until ctx is done. It returns nil on a
// clean shutdown (ctx canceled between shards or mid-shard).
func (w *Worker) Run(ctx context.Context) error {
	w.opts.Logf("cluster: worker %s joining fleet at %s", w.opts.Name, w.opts.Coordinator)
	idle := time.NewTimer(0)
	if !idle.Stop() {
		<-idle.C
	}
	defer idle.Stop()
	for {
		if ctx.Err() != nil {
			return nil
		}
		env, tc, err := w.claim(ctx)
		if err != nil {
			w.opts.Logf("cluster: worker %s claim: %v", w.opts.Name, err)
		}
		if env == nil {
			idle.Reset(w.opts.Poll)
			select {
			case <-ctx.Done():
				return nil
			case <-idle.C:
			}
			continue
		}
		w.runShard(ctx, env, tc)
	}
}

// claim asks the coordinator for the next shard; a nil envelope with nil
// error means no work. The returned trace context — read from the claim
// response headers — identifies the distributed trace the shard belongs to;
// the worker echoes it on the shard's other RPCs.
func (w *Worker) claim(ctx context.Context) (*ShardEnvelope, obs.TraceContext, error) {
	req := claimRequest{Worker: w.opts.Name, MetricsURL: w.opts.MetricsURL}
	resp, err := w.post(ctx, w.opts.Coordinator+"/v1/shards/claim", req, obs.TraceContext{})
	if err != nil {
		return nil, obs.TraceContext{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNoContent {
		return nil, obs.TraceContext{}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, obs.TraceContext{}, errHTTP(resp)
	}
	var env ShardEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, obs.TraceContext{}, fmt.Errorf("cluster: decode claim: %w", err)
	}
	return &env, obs.TraceContextFromHeader(resp.Header), nil
}

// runShard executes one claimed shard to a posted result, a posted error, or
// abandonment (canceled context / lost lease — the coordinator re-dispatches
// from the last uploaded snapshot either way). tc is the claim's propagated
// trace context: when it names a trace (the job is traced), the shard runs
// with a local tracer whose buffered spans ship with the result for the
// coordinator to merge; otherwise the shard runs with the nil tracer and its
// result carries no trace sidecar. The shard's flight journal is always on —
// it is bounded, cheap, and rides the same result post.
func (w *Worker) runShard(ctx context.Context, env *ShardEnvelope, tc obs.TraceContext) {
	if w.opts.onClaim != nil {
		w.opts.onClaim(env)
	}
	spec := env.Spec
	w.opts.Logf("cluster: worker %s running job %s shard %d/%d (restarts [%d,%d), resume=%v)",
		w.opts.Name, spec.Job, spec.Shard, spec.Shards, spec.FirstRestart,
		spec.FirstRestart+spec.Restarts, env.Snapshot != nil)

	var tr *obs.Tracer
	if tc.Valid() {
		tr = obs.NewTracer()
	}
	fl := obs.NewFlight(0)
	shardSpan := tr.Begin("worker shard", 0).
		Arg("shard", int64(spec.Shard)).
		Arg("first_restart", int64(spec.FirstRestart))

	d, err := w.buildBlock(spec)
	if err != nil {
		w.postResult(ctx, spec, resultRequest{Worker: w.opts.Name, Error: err.Error()}, tc)
		return
	}
	cfg := spec.Workload.MachineConfig()

	cache := core.NewEvalCache()
	w.scratch.Prewarm(d)
	ropts := core.ResumeOptions{Cache: cache, Scratch: w.scratch, Trace: tr, Flight: fl}
	p := spec.shardParams()

	snap := env.Snapshot
	for {
		sliceCtx, cancelSlice := context.WithTimeout(ctx, w.opts.CheckpointEvery)
		var (
			res  *core.Result
			next *core.Snapshot
			rerr error
		)
		if snap == nil {
			res, next, rerr = core.ExploreResumable(sliceCtx, d, cfg, p, ropts)
		} else {
			res, next, rerr = core.ResumeFrom(sliceCtx, d, cfg, snap, ropts)
		}
		cancelSlice()

		if rerr != nil && next != nil {
			// Slice expired mid-run: checkpoint and keep going, unless the
			// worker itself is shutting down.
			if ctx.Err() != nil {
				obsWorkerAbandoned.Inc()
				w.opts.Logf("cluster: worker %s abandoning job %s shard %d (shutdown)", w.opts.Name, spec.Job, spec.Shard)
				return
			}
			snap = next
			hits, misses := cache.Stats()
			if err := w.heartbeat(ctx, spec, heartbeatRequest{
				Worker: w.opts.Name, Snapshot: snap, CacheHits: hits, CacheMisses: misses,
			}, tc); err != nil {
				if errors.Is(err, ErrGone) {
					obsWorkerAbandoned.Inc()
					w.opts.Logf("cluster: worker %s abandoning job %s shard %d (lease gone)", w.opts.Name, spec.Job, spec.Shard)
					return
				}
				// Transient coordinator trouble: keep exploring; the next
				// slice retries the heartbeat before the lease lapses.
				w.opts.Logf("cluster: worker %s heartbeat job %s shard %d: %v", w.opts.Name, spec.Job, spec.Shard, err)
			} else if w.opts.onBeat != nil {
				w.opts.onBeat(snap)
			}
			continue
		}
		if rerr != nil {
			w.postResult(ctx, spec, resultRequest{Worker: w.opts.Name, Error: rerr.Error()}, tc)
			return
		}
		hits, misses := cache.Stats()
		shardSpan.End()
		// The observability sidecar rides the result post: the shard's
		// convergence journal in shard-local restart coordinates and, for a
		// traced shard only, its buffered spans with this worker's trace
		// epoch plus the clock-offset estimate the coordinator rebases them
		// with.
		req := resultRequest{
			Worker: w.opts.Name, Result: res.State(), CacheHits: hits, CacheMisses: misses,
			Flight: fl.Series(),
		}
		if tr.Enabled() {
			exp, clock := tr.Export(), w.clock.State()
			req.Trace, req.Clock = &exp, &clock
		}
		w.postResult(ctx, spec, req, tc)
		return
	}
}

// buildBlock rebuilds the shard's graph from its workload description.
func (w *Worker) buildBlock(spec ShardSpec) (*dfg.DFG, error) {
	if err := spec.Workload.Validate(); err != nil {
		return nil, err
	}
	dfgs, err := spec.Workload.BuildDFGs()
	if err != nil {
		return nil, err
	}
	if spec.Block < 0 || spec.Block >= len(dfgs) {
		return nil, fmt.Errorf("cluster: block %d out of range (%d blocks)", spec.Block, len(dfgs))
	}
	return dfgs[spec.Block], nil
}

func (w *Worker) heartbeat(ctx context.Context, spec ShardSpec, req heartbeatRequest, tc obs.TraceContext) error {
	return w.rpc(ctx, w.shardURL(spec, "heartbeat"), req, tc)
}

// postResult delivers the shard outcome, counting the shard as run. A
// delivery error is logged and dropped: the lease lapses and the shard
// re-dispatches, which is the same recovery path as worker death.
func (w *Worker) postResult(ctx context.Context, spec ShardSpec, req resultRequest, tc obs.TraceContext) {
	obsWorkerShardsRun.Inc()
	if err := w.rpc(ctx, w.shardURL(spec, "result"), req, tc); err != nil && !errors.Is(err, ErrGone) {
		w.opts.Logf("cluster: worker %s result job %s shard %d: %v", w.opts.Name, spec.Job, spec.Shard, err)
	}
}

func (w *Worker) shardURL(spec ShardSpec, verb string) string {
	return w.opts.Coordinator + "/v1/shards/" + spec.Job + "/" + strconv.Itoa(spec.Shard) + "/" + verb
}

// rpc posts v and expects a 2xx.
func (w *Worker) rpc(ctx context.Context, url string, v any, tc obs.TraceContext) error {
	resp, err := w.post(ctx, url, v, tc)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		return errHTTP(resp)
	}
	return nil
}

// post issues one coordinator RPC: the propagated trace context rides the
// request headers (a zero context writes none), and the exchange's timing
// plus the coordinator's response clock stamp feed the worker's clock-offset
// estimate.
func (w *Worker) post(ctx context.Context, url string, v any, tc obs.TraceContext) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	tc.Inject(req.Header)
	sent := w.opts.now().UnixMicro()
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	w.clock.Observe(sent, w.opts.now().UnixMicro(), resp.Header)
	return resp, nil
}

func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, rc)
	_ = rc.Close()
}
