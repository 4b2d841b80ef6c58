package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrGone rejects heartbeats and results for a shard lease the sender no
// longer holds — the lease lapsed and the shard was re-dispatched, or the
// job was canceled. Workers abandon the shard on it (HTTP 410).
var ErrGone = errors.New("cluster: shard lease gone")

// Options parameterize a Coordinator.
type Options struct {
	// Lease is how long a claimed shard survives without a heartbeat before
	// it is re-queued for another worker (default 15s). It must comfortably
	// exceed the workers' checkpoint interval.
	Lease time.Duration
	// MaxRetries bounds re-dispatches per shard (lease losses plus worker
	// errors); exceeding it fails the job (default 3).
	MaxRetries int
	// Now supplies the wall clock for lease bookkeeping (default time.Now;
	// injectable so fault tests drive lease expiry deterministically).
	// Leases are fault tolerance, not semantics: results are byte-identical
	// whatever the clock does.
	Now func() time.Time
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Trace, when non-nil, records one span per shard dispatch on track 0 —
	// claim to result — labeled with shard and first restart, and receives
	// the workers' uploaded shard spans as per-worker process rows. It is
	// the coordinator-wide fallback; a job whose BlockOptions carry their
	// own Trace uses that instead. Observation only.
	Trace *obs.Tracer

	// sweepEvery overrides the lease sweep interval while ExploreBlock
	// waits (default min(Lease/2, 1s)); tests shorten it so a fake clock
	// advance is noticed promptly.
	sweepEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.Lease <= 0 {
		o.Lease = 15 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.sweepEvery <= 0 {
		o.sweepEvery = o.Lease / 2
		if o.sweepEvery > time.Second {
			o.sweepEvery = time.Second
		}
		if o.sweepEvery < 10*time.Millisecond {
			o.sweepEvery = 10 * time.Millisecond
		}
	}
	return o
}

// Coordinator owns the shard queue, the per-shard leases and snapshots, the
// deterministic reduction of shard results.
// Workers talk to it exclusively through the HTTP surface (Mount); the
// embedding process drives it through ExploreBlock.
//
// Locking: every exported entry point takes mu itself and touches shard and
// job state only inside its own critical section; the OnShardDone callback
// and all RPC decoding/encoding run outside it.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	jobs    map[string]*dJob        // guarded by mu
	jobList []*dJob                 // guarded by mu — insertion order, for map-free sweeps
	pending []*shard                // guarded by mu — FIFO claim queue
	nextID  int                     // guarded by mu
	fleet   map[string]*fleetWorker // guarded by mu — worker name → registration
	// fleetList mirrors fleet in registration order, for map-free iteration
	// (maporder) and stable pid assignment.
	fleetList []*fleetWorker // guarded by mu
}

// fleetWorker is one worker node the coordinator has heard from. name and
// pid are fixed at registration; pid is the trace process row the worker's
// uploaded spans merge into (1 + registration order; pid 0 is the
// coordinator's own row).
type fleetWorker struct {
	name       string
	pid        int
	metricsURL string    // guarded by Coordinator.mu — last advertised /metrics URL
	lastSeen   time.Time // guarded by Coordinator.mu — last RPC from this worker
}

// registerWorker get-or-creates the worker's fleet registration and marks it
// alive. It takes mu itself; callers invoke it before (not inside) their own
// critical sections.
func (c *Coordinator) registerWorker(name, metricsURL string, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fw := c.fleet[name]
	if fw == nil {
		fw = &fleetWorker{name: name, pid: len(c.fleetList) + 1}
		c.fleet[name] = fw
		c.fleetList = append(c.fleetList, fw)
	}
	if metricsURL != "" {
		fw.metricsURL = metricsURL
	}
	fw.lastSeen = now
}

// FleetNode describes one registered worker to the fleet-metrics
// aggregator (the service layer's /v1/fleet/metrics handler).
type FleetNode struct {
	// Name is the worker's self-chosen identity (lease ownership).
	Name string `json:"name"`
	// MetricsURL is the worker's advertised Prometheus endpoint; empty when
	// the worker never advertised one (it is then listed but not scraped).
	MetricsURL string `json:"metrics_url,omitempty"`
	// LastSeen is the coordinator-clock time of the worker's last RPC.
	LastSeen time.Time `json:"last_seen"`
}

// FleetNodes snapshots the fleet registry in registration order.
func (c *Coordinator) FleetNodes() []FleetNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FleetNode, len(c.fleetList))
	for i, fw := range c.fleetList {
		out[i] = FleetNode{Name: fw.name, MetricsURL: fw.metricsURL, LastSeen: fw.lastSeen}
	}
	return out
}

// dJob is one distributed block exploration in flight. id, wl, block, d,
// done, trace, flight and onShardDone are set in enqueue before the job is
// published and immutable afterwards.
type dJob struct {
	id     string
	wl     Workload
	block  int
	d      *dfg.DFG    // the block's graph, for reduction
	trace  *obs.Tracer // per-job merged trace (nil: fall back to Options.Trace)
	flight *obs.Flight // per-job convergence journal (nil: disabled)

	// shards is set once in enqueue before the job is published; the
	// entries' mutable fields carry their own guard annotations.
	shards      []*shard
	remaining   int           // guarded by Coordinator.mu — shards without a result
	failed      error         // guarded by Coordinator.mu — first terminal failure
	canceled    bool          // guarded by Coordinator.mu — ExploreBlock gave up (ctx)
	done        chan struct{} // closed under Coordinator.mu when the job fails, after the last shard is folded in when it completes
	cacheHits   uint64        // guarded by Coordinator.mu — summed worker local-cache hits
	cacheMisses uint64        // guarded by Coordinator.mu — summed worker local-cache misses
	onShardDone func(ShardEvent)
}

type shardState int

const (
	shardPending shardState = iota
	shardClaimed
	shardDone
)

// shard is one contiguous restart range of a job. job, index, firstRestart,
// restarts and the metric handles are set at construction and immutable.
type shard struct {
	job          *dJob
	index        int
	firstRestart int
	restarts     int

	state     shardState        // guarded by Coordinator.mu
	worker    string            // guarded by Coordinator.mu
	lastBeat  time.Time         // guarded by Coordinator.mu
	claimedAt time.Time         // guarded by Coordinator.mu — when the current lease began
	snap      *core.Snapshot    // guarded by Coordinator.mu — last uploaded checkpoint
	retries   int               // guarded by Coordinator.mu
	result    *core.ResultState // guarded by Coordinator.mu
	hits      uint64            // guarded by Coordinator.mu — last cumulative local-cache report
	misses    uint64            // guarded by Coordinator.mu
	span      obs.Span          // guarded by Coordinator.mu — open dispatch span

	// hitC is the shard-index-labeled hit series, resolved once.
	hitC *obs.Counter
}

// NewCoordinator builds a coordinator.
func NewCoordinator(opts Options) *Coordinator {
	o := opts.withDefaults()
	return &Coordinator{
		opts:  o,
		jobs:  make(map[string]*dJob),
		fleet: make(map[string]*fleetWorker),
	}
}

// ShardEvent reports one finished shard to BlockOptions.OnShardDone.
type ShardEvent struct {
	// Shard and Shards index the finished shard within the job's partition.
	Shard  int
	Shards int
	// FirstRestart and Restarts are the shard's restart window.
	FirstRestart int
	Restarts     int
	// FinalCycles is the shard winner's schedule length; Retries how many
	// re-dispatches the shard needed.
	FinalCycles int
	Retries     int
}

// BlockOptions parameterize one ExploreBlock call.
type BlockOptions struct {
	// Shards is the number of contiguous restart ranges to scatter (default
	// 1; clamped to the restart count).
	Shards int
	// OnShardDone, when non-nil, is called as each shard delivers its
	// result — the service layer's shard-level progress stream. Called from
	// RPC handler goroutines without coordinator locks held; must be safe
	// for concurrent use. Observability only; event order is timing-
	// dependent and outside the determinism contract.
	OnShardDone func(ShardEvent)
	// Trace, when non-nil, receives this job's merged distributed trace:
	// the coordinator's dispatch spans on pid 0 plus every worker's
	// uploaded shard spans as their own process rows, rebased onto the
	// coordinator clock and clamped into their dispatch window (see
	// obs.Tracer.Import). Overrides Options.Trace for this job.
	// Observation only.
	Trace *obs.Tracer
	// Flight, when non-nil, receives the job's convergence journal: shard
	// lifecycle events ("claim"/"retry"/"done"/"failed") recorded by the
	// coordinator, plus each shard's worker-recorded samples rebased from
	// shard-local to global restart indices on result delivery.
	// Observation only.
	Flight *obs.Flight
}

// tracer returns the tracer receiving j's spans: the per-job one when the
// caller supplied it, else the coordinator-wide fallback.
func (j *dJob) tracer(fallback *obs.Tracer) *obs.Tracer {
	if j.trace != nil {
		return j.trace
	}
	return fallback
}

// ExploreBlock runs one block exploration sharded across the fleet and
// returns the same *core.Result a single-node core.Explore call
// with wl's parameters would: per-shard winners are folded in shard order
// with core.BestResult, whose strict comparisons make contiguous-range
// reduction identical to the global scan. Blocks until every shard reports,
// the job fails (a shard exceeded its retry budget or returned a hard
// error), or ctx is done. Only the CacheHits/CacheMisses observability
// counters may differ from a single-node run.
func (c *Coordinator) ExploreBlock(ctx context.Context, wl Workload, block int, opts BlockOptions) (*core.Result, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	dfgs, err := wl.BuildDFGs()
	if err != nil {
		return nil, err
	}
	if block < 0 || block >= len(dfgs) {
		return nil, fmt.Errorf("cluster: block %d out of range (%d blocks)", block, len(dfgs))
	}
	j := c.enqueue(wl, block, dfgs[block], opts)
	defer c.forget(j)

	ticker := time.NewTicker(c.opts.sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-j.done:
			return c.reduce(j)
		case <-ticker.C:
			c.expire(c.opts.Now())
		}
	}
}

// enqueue registers the job and scatters its shards onto the claim queue.
func (c *Coordinator) enqueue(wl Workload, block int, d *dfg.DFG, opts BlockOptions) *dJob {
	ranges := parallel.SplitRanges(wl.restarts(), opts.Shards)
	j := &dJob{
		wl:          wl,
		block:       block,
		d:           d,
		trace:       opts.Trace,
		flight:      opts.Flight,
		done:        make(chan struct{}),
		onShardDone: opts.OnShardDone,
		shards:      make([]*shard, len(ranges)),
	}
	now := c.opts.Now()
	for i, r := range ranges {
		j.shards[i] = &shard{
			job:          j,
			index:        i,
			firstRestart: r.Lo,
			restarts:     r.Len(),
			lastBeat:     now,
			hitC:         shardCacheHits(i),
		}
	}
	c.mu.Lock()
	c.nextID++
	j.id = fmt.Sprintf("j%d", c.nextID)
	j.remaining = len(ranges)
	c.pending = append(c.pending, j.shards...)
	c.jobs[j.id] = j
	c.jobList = append(c.jobList, j)
	c.mu.Unlock()
	obsShardsCreated.Add(float64(len(ranges)))
	c.opts.Logf("cluster: job %s block %d: %d restarts in %d shards", j.id, block, wl.restarts(), len(ranges))
	return j
}

// forget removes a finished (or abandoned) job: pending shards of the job
// are skipped by claim, and in-flight heartbeats/results get ErrGone.
func (c *Coordinator) forget(j *dJob) {
	c.mu.Lock()
	j.canceled = true
	delete(c.jobs, j.id)
	keepJobs := c.jobList[:0]
	for _, q := range c.jobList {
		if q != j {
			keepJobs = append(keepJobs, q)
		}
	}
	c.jobList = keepJobs
	keep := c.pending[:0]
	for _, s := range c.pending {
		if s.job != j {
			keep = append(keep, s)
		}
	}
	c.pending = keep
	c.mu.Unlock()
}

// specFor renders a shard's wire spec (immutable fields only).
func specFor(s *shard) ShardSpec {
	return ShardSpec{
		Job:          s.job.id,
		Shard:        s.index,
		Shards:       len(s.job.shards),
		Block:        s.job.block,
		FirstRestart: s.firstRestart,
		Restarts:     s.restarts,
		Workload:     s.job.wl,
	}
}

// Claim hands the next pending shard to the requesting worker, re-checking
// leases first so a dead worker's shard re-dispatches as soon as anyone asks
// for work. The envelope carries the shard's last uploaded snapshot on a
// re-dispatch. When the job is traced — its own BlockOptions.Trace, else the
// coordinator-wide Options.Trace — the returned TraceContext names the
// distributed trace the shard's work belongs to (the job) and the dispatch
// span it nests under; the HTTP layer propagates it as response headers, and
// the worker echoes it on every RPC of the shard. An untraced job's claims
// return the zero context, so its workers run the shard untraced and ship
// no spans.
func (c *Coordinator) Claim(req claimRequest) (*ShardEnvelope, obs.TraceContext, bool) {
	now := c.opts.Now()
	c.expire(now)
	c.registerWorker(req.Worker, req.MetricsURL, now)
	c.mu.Lock()
	for len(c.pending) > 0 {
		s := c.pending[0]
		c.pending = c.pending[1:]
		if s.state != shardPending || s.job.canceled || s.job.failed != nil {
			continue
		}
		s.state = shardClaimed
		s.worker = req.Worker
		s.lastBeat = now
		s.claimedAt = now
		var tc obs.TraceContext
		if tr := s.job.tracer(c.opts.Trace); tr.Enabled() {
			s.span = tr.Begin("shard", 0).
				Arg("shard", int64(s.index)).
				Arg("first_restart", int64(s.firstRestart))
			tc = obs.TraceContext{
				TraceID:    s.job.id,
				ParentSpan: fmt.Sprintf("shard-%d-try-%d", s.index, s.retries),
			}
		}
		env := &ShardEnvelope{Spec: specFor(s), Snapshot: s.snap}
		retry := s.retries
		fl := s.job.flight
		c.mu.Unlock()
		label := "claim"
		if retry > 0 {
			label = "retry"
		}
		fl.RecordEvent(obs.FlightShard, label, s.index, retry, 0)
		c.opts.Logf("cluster: job %s shard %d -> worker %s (resume=%v, retry %d)",
			env.Spec.Job, env.Spec.Shard, req.Worker, env.Snapshot != nil, retry)
		return env, tc, true
	}
	c.mu.Unlock()
	return nil, obs.TraceContext{}, false
}

// expire re-queues every claimed shard whose lease lapsed, failing a job
// once one of its shards exhausts the retry budget. Runs from Claim and
// from ExploreBlock's sweep ticker, so a fleet that went quiet still fails
// jobs whose shards can never finish. Iterates the ordered job list, never
// a map (maporder).
func (c *Coordinator) expire(now time.Time) {
	// Flight events are recorded after mu is released (Flight has its own
	// lock; keeping the two disjoint fixes the lock order trivially).
	type flightEvent struct {
		fl    *obs.Flight
		label string
		shard int
		retry int
	}
	var events []flightEvent
	c.mu.Lock()
	for _, j := range c.jobList {
		if j.failed != nil || j.canceled {
			continue
		}
		for _, s := range j.shards {
			if s.state != shardClaimed || now.Sub(s.lastBeat) <= c.opts.Lease {
				continue
			}
			c.opts.Logf("cluster: job %s shard %d: lease lapsed (worker %s, retry %d)",
				j.id, s.index, s.worker, s.retries+1)
			// Re-queue (same shape as Result's worker-error path; kept inline
			// so every guarded access sits in a function that takes mu).
			s.span.End()
			s.span = obs.Span{}
			s.retries++
			obsShardRetries.Inc()
			if s.retries > c.opts.MaxRetries {
				j.failed = fmt.Errorf("cluster: job %s shard %d exceeded %d retries",
					j.id, s.index, c.opts.MaxRetries)
				events = append(events, flightEvent{j.flight, "failed", s.index, s.retries})
				close(j.done)
				break // job is dead; its other shards no longer matter
			}
			events = append(events, flightEvent{j.flight, "retry", s.index, s.retries})
			s.state = shardPending
			s.worker = ""
			c.pending = append(c.pending, s)
		}
	}
	c.mu.Unlock()
	for _, e := range events {
		e.fl.RecordEvent(obs.FlightShard, e.label, e.shard, e.retry, 0)
	}
}

// Heartbeat renews worker's lease on a shard, stores the uploaded snapshot
// (if any) as the shard's re-dispatch checkpoint, and folds the worker's
// cumulative local eval-cache counters into the per-shard metric series.
// ErrGone tells the worker its lease is lost and the shard should be
// abandoned.
func (c *Coordinator) Heartbeat(jobID string, shard int, req heartbeatRequest) error {
	now := c.opts.Now()
	c.registerWorker(req.Worker, "", now)
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok || j.canceled || j.failed != nil {
		return ErrGone
	}
	if shard < 0 || shard >= len(j.shards) {
		return fmt.Errorf("cluster: job %s has no shard %d", jobID, shard)
	}
	s := j.shards[shard]
	if s.state != shardClaimed || s.worker != req.Worker {
		return ErrGone
	}
	s.lastBeat = now
	if req.Snapshot != nil {
		s.snap = req.Snapshot
	}
	// Fold the worker's cumulative local-cache report into the shard's
	// labeled hit counter and the job totals.
	dh, dm := cacheDelta(s.hits, s.misses, req.CacheHits, req.CacheMisses)
	s.hitC.Add(float64(dh))
	j.cacheHits += dh
	j.cacheMisses += dm
	s.hits, s.misses = req.CacheHits, req.CacheMisses
	return nil
}

// cacheDelta returns how far a worker's cumulative local-cache report
// (hits, misses) moved past the last one seen (lastHits, lastMisses). A
// re-dispatched shard's counters restart from zero: a backwards report
// resets the baseline, so the retried work is re-counted (which is what
// actually happened).
func cacheDelta(lastHits, lastMisses, hits, misses uint64) (dHits, dMisses uint64) {
	if hits < lastHits || misses < lastMisses {
		return hits, misses
	}
	return hits - lastHits, misses - lastMisses
}

// Result records a shard's outcome. A worker error consumes one retry and
// re-queues the shard (resuming from its last snapshot); a success stores
// the serialized shard winner, folds the shard's observability sidecar —
// uploaded spans rebased onto the coordinator clock (traced jobs only),
// flight samples rebased to global restart indices — into the job's trace
// and journal, and completes the job when it was the last shard. tc is the
// trace context the worker echoed on the RPC (observability cross-check
// only; a zero context is fine).
func (c *Coordinator) Result(jobID string, shard int, req resultRequest, tc obs.TraceContext) error {
	now := c.opts.Now()
	c.registerWorker(req.Worker, "", now)
	var ev ShardEvent
	var notify func(ShardEvent)
	c.mu.Lock()
	j, ok := c.jobs[jobID]
	if !ok || j.canceled || j.failed != nil {
		c.mu.Unlock()
		return ErrGone
	}
	if shard < 0 || shard >= len(j.shards) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: job %s has no shard %d", jobID, shard)
	}
	s := j.shards[shard]
	if s.state != shardClaimed || s.worker != req.Worker {
		c.mu.Unlock()
		return ErrGone
	}
	s.lastBeat = now
	if req.Error != "" {
		c.opts.Logf("cluster: job %s shard %d: worker %s error: %s", jobID, shard, req.Worker, req.Error)
		// Re-queue with one retry consumed (same shape as expire's lapsed-
		// lease path; kept inline for the per-function lock discipline).
		s.span.End()
		s.span = obs.Span{}
		s.retries++
		obsShardRetries.Inc()
		label := "retry"
		if s.retries > c.opts.MaxRetries {
			j.failed = fmt.Errorf("cluster: job %s shard %d exceeded %d retries",
				jobID, shard, c.opts.MaxRetries)
			label = "failed"
			close(j.done)
		} else {
			s.state = shardPending
			s.worker = ""
			c.pending = append(c.pending, s)
		}
		retries, fl := s.retries, j.flight
		c.mu.Unlock()
		fl.RecordEvent(obs.FlightShard, label, shard, retries, 0)
		return nil
	}
	if req.Result == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: job %s shard %d: result without payload", jobID, shard)
	}
	if tc.TraceID != "" && tc.TraceID != jobID {
		// Propagation bug, not a protocol violation: the result is valid,
		// the spans just belong to another trace. Surface it, keep going.
		c.opts.Logf("cluster: job %s shard %d: worker %s echoed trace id %q", jobID, shard, req.Worker, tc.TraceID)
	}
	dh, dm := cacheDelta(s.hits, s.misses, req.CacheHits, req.CacheMisses)
	s.hitC.Add(float64(dh))
	j.cacheHits += dh
	j.cacheMisses += dm
	s.hits, s.misses = req.CacheHits, req.CacheMisses
	s.result = req.Result
	s.state = shardDone
	s.span.Arg("final_cycles", int64(req.Result.FinalCycles)).End()
	s.span = obs.Span{}
	j.remaining--
	// The last shard completes the job, but done is closed only after its
	// sidecar is folded in and OnShardDone has run (below), so ExploreBlock
	// never returns a trace or journal without it. No other path closes
	// done once every shard is done: nothing is left to claim, expire or
	// fail.
	last := j.remaining == 0 && j.failed == nil
	if j.onShardDone != nil {
		ev = ShardEvent{
			Shard:        s.index,
			Shards:       len(j.shards),
			FirstRestart: s.firstRestart,
			Restarts:     s.restarts,
			FinalCycles:  req.Result.FinalCycles,
			Retries:      s.retries,
		}
		notify = j.onShardDone
	}
	tr := j.tracer(c.opts.Trace)
	fl := j.flight
	pid := c.fleet[req.Worker].pid
	claimed := s.claimedAt
	retries := s.retries
	firstRestart, block := s.firstRestart, j.block
	c.mu.Unlock()
	// Fold the shard's observability sidecar into the job's trace and
	// journal (both have their own locks; done outside mu). The worker's
	// spans rebase by the negated worker-measured offset (worker − coord ⇒
	// coord = worker − offset) and clamp into the dispatch window
	// [claim, result] on the coordinator clock, so offset-estimation error
	// cannot break nesting under the dispatch span ended above.
	if req.Trace != nil {
		var offset int64
		if req.Clock != nil {
			offset = req.Clock.OffsetMicros
		}
		tr.Import(*req.Trace, -offset, pid, "worker "+req.Worker,
			claimed.UnixMicro(), now.UnixMicro())
	}
	fl.MergeRebased(req.Flight, block, firstRestart)
	fl.RecordEvent(obs.FlightShard, "done", shard, retries, float64(req.Result.FinalCycles))
	if notify != nil {
		notify(ev)
	}
	if last {
		close(j.done)
	}
	return nil
}

// reduce folds the shard winners, in shard order, with the same strict
// left-to-right comparison the single-node reduction uses. Shards cover
// contiguous ascending restart ranges, so this equals the global scan over
// all restarts (see core.BestResult). BaseCycles are cross-checked across
// shards — they are the same deterministic all-software schedule on every
// node, so a mismatch means a worker explored a different graph.
func (c *Coordinator) reduce(j *dJob) (*core.Result, error) {
	c.mu.Lock()
	failed := j.failed
	hits, misses := j.cacheHits, j.cacheMisses
	states := make([]*core.ResultState, len(j.shards))
	for i, s := range j.shards {
		states[i] = s.result
	}
	c.mu.Unlock()
	if failed != nil {
		return nil, failed
	}
	results := make([]*core.Result, len(states))
	base := -1
	for i, st := range states {
		if st == nil {
			return nil, fmt.Errorf("cluster: job %s shard %d completed without a result", j.id, i)
		}
		r, err := core.ResultFromState(j.d, st)
		if err != nil {
			return nil, fmt.Errorf("cluster: job %s shard %d: %w", j.id, i, err)
		}
		if base < 0 {
			base = r.BaseCycles
		} else if r.BaseCycles != base {
			return nil, fmt.Errorf("cluster: job %s shard %d base cycles %d, shard 0 had %d — workers disagree on the workload",
				j.id, i, r.BaseCycles, base)
		}
		results[i] = r
	}
	best := core.BestResult(results)
	if best == nil {
		return nil, fmt.Errorf("cluster: job %s reduced to no result", j.id)
	}
	best.CacheHits, best.CacheMisses = hits, misses
	return best, nil
}
