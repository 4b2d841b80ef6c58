package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// Sentinel errors mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (429 Too Many Requests).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions while the server drains (503).
	ErrDraining = errors.New("service: server draining")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("service: no such job")
	// ErrFinished rejects cancelation of a job already in a terminal
	// state (409 Conflict).
	ErrFinished = errors.New("service: job already finished")
	// ErrNoTrace reports a job that has no trace — submitted without
	// "trace": true, or not started yet (404).
	ErrNoTrace = errors.New("service: job has no trace")
	// ErrNoFleet reports a fleet-only endpoint on a server that is not a
	// coordinator (404).
	ErrNoFleet = errors.New("service: this server is not a coordinator")
)

// Cancel causes, distinguished via context.Cause so the runner knows
// whether an interrupted exploration should checkpoint (drain) or discard
// (client cancel / deadline).
var (
	errDrainCause    = errors.New("service: draining, job checkpointed")
	errCancelCause   = errors.New("service: canceled by client")
	errDeadlineCause = errors.New("service: job deadline exceeded")
)

// Config parameterizes a Manager.
type Config struct {
	// QueueSize bounds the FIFO submission queue (default 64). A full
	// queue rejects submissions with ErrQueueFull.
	QueueSize int
	// Runners is the number of concurrent job runners (default 2). Each
	// runner drives one job at a time on its own core worker pool.
	Runners int
	// DefaultDeadline bounds jobs that do not set deadline_ms; 0 means
	// unlimited.
	DefaultDeadline time.Duration
	// StateDir is the checkpoint directory; empty disables persistence
	// (drain still checkpoints in memory, but a process restart loses it).
	StateDir string
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
	// Coordinator, when non-nil, lets jobs opt into fleet execution with
	// "distributed": {...} — each block is sharded across the coordinator's
	// workers instead of the local pool. Jobs without the option run locally
	// as always. Submissions requesting it on a manager without a
	// coordinator are rejected at validation time.
	Coordinator *cluster.Coordinator
}

// Manager owns the job queue, the runner pool, and every job's lifecycle.
// All shared state is guarded by mu; the runners, the HTTP handlers and
// Drain only touch it through methods that take the lock.
type Manager struct {
	cfg   Config
	store *Store // nil when persistence is disabled
	met   *metrics
	logf  func(format string, args ...any)
	// scratch pools the exploration workers' scheduling kernels and arenas
	// across every job this manager runs, prewarmed per job to the largest
	// block so arena warmup is paid once per worker per process, not once
	// per (job, block, worker).
	scratch *core.Scratch

	// wake signals runners that the queue became non-empty; runCtx stops
	// them. Both are set once at construction.
	wake       chan struct{}
	runCtx     context.Context
	stopRunner context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu
	queue    []*job          // guarded by mu
	draining bool            // guarded by mu
	running  int             // guarded by mu
}

// New builds a Manager, reloads any checkpoints from cfg.StateDir into the
// queue (oldest submission first), and starts the runner pool.
func New(cfg Config) (*Manager, error) {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	//lint:ignore ctxflow manager-lifetime root: runCtx outlives any caller; Close cancels it explicitly
	runCtx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		met:        newMetrics(),
		logf:       cfg.Logf,
		scratch:    core.NewScratch(),
		wake:       make(chan struct{}, 1),
		runCtx:     runCtx,
		stopRunner: stop,
		jobs:       make(map[string]*job),
	}
	m.registerGauges()
	if cfg.StateDir != "" {
		store, err := NewStore(cfg.StateDir)
		if err != nil {
			stop()
			return nil, err
		}
		m.store = store
		cps, errs := store.Load()
		for _, err := range errs {
			m.logf("service: skipping checkpoint: %v", err)
		}
		for _, cp := range cps {
			m.reload(cp)
		}
	}
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// registerGauges publishes the manager's live state — queue depth and
// running jobs — as sampled-at-exposition gauges on its own registry. The
// callbacks take m.mu; obs snapshots series before calling them, so no
// registry lock is held across the manager lock.
func (m *Manager) registerGauges() {
	m.met.reg.GaugeFunc("queue_depth", "Jobs waiting in the FIFO queue.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.queue))
	})
	m.met.reg.GaugeFunc("jobs_running", "Jobs currently executing on a runner.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
}

// reload re-queues one persisted checkpoint as a resumable job, restoring
// its convergence journal from the checkpoint sidecar so the flight series
// spans the daemon restart.
func (m *Manager) reload(cp *Checkpoint) {
	j := &job{
		id:        cp.JobID,
		spec:      cp.Spec,
		submitted: cp.SubmittedAt,
		events:    newBus(),
		flight:    obs.NewFlight(0),
	}
	j.flight.Restore(cp.Flight)
	j.events.publish(Event{Type: EventQueued, Time: time.Now(), State: StateQueued})
	m.mu.Lock()
	j.state = StateQueued
	j.resumed = true
	j.blocks = cp.Blocks
	j.cp = cp
	m.jobs[j.id] = j
	m.queue = append(m.queue, j)
	m.mu.Unlock()
	m.met.resumed.Inc()
	m.logf("service: reloaded job %s (%d blocks done, snapshot=%v)",
		j.id, len(cp.Blocks), cp.Snapshot != nil)
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: crypto/rand: %v", err)) // never happens on a sane OS
	}
	return hex.EncodeToString(b[:])
}

// Submit validates and enqueues a job, persisting its initial checkpoint so
// a crash before the first run loses nothing.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.validate(); err != nil {
		return JobStatus{}, fmt.Errorf("invalid job: %w", err)
	}
	if spec.Distributed != nil && m.cfg.Coordinator == nil {
		return JobStatus{}, fmt.Errorf("invalid job: distributed execution requested but this server is not a coordinator (run with -coordinator)")
	}
	j := &job{
		id:        newJobID(),
		spec:      spec,
		submitted: time.Now(),
		events:    newBus(),
		flight:    obs.NewFlight(0),
	}
	cp := &Checkpoint{JobID: j.id, Spec: spec, SubmittedAt: j.submitted}
	// Publish queued before the job is claimable: once it is on the queue a
	// runner may publish started at any moment. Until then nobody can
	// subscribe to it, and a rejected job's bus is simply dropped.
	j.events.publish(Event{Type: EventQueued, Time: time.Now(), State: StateQueued})

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.met.rejected.Inc()
		return JobStatus{}, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueSize {
		m.mu.Unlock()
		m.met.rejected.Inc()
		return JobStatus{}, ErrQueueFull
	}
	j.state = StateQueued
	j.cp = cp
	m.jobs[j.id] = j
	m.queue = append(m.queue, j)
	m.mu.Unlock()

	m.met.submitted.Inc()
	if m.store != nil {
		if err := m.store.Save(cp); err != nil {
			m.logf("service: persist job %s: %v", j.id, err)
		}
	}
	m.signalWake()
	return m.Get(j.id)
}

func (m *Manager) signalWake() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Get returns a job's status.
func (m *Manager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return m.status(j), nil
}

// status builds a consistent point-in-time wire view of a job.
func (m *Manager) status(j *job) JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		State:       j.state,
		Error:       j.errMsg,
		Resumed:     j.resumed,
		SubmittedAt: j.submitted,
		Blocks:      append([]BlockResult(nil), j.blocks...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// List returns every job, oldest submission first.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		out = append(out, m.status(j))
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].SubmittedAt.Equal(out[k].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[k].SubmittedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel stops a job on client request: a queued job is removed from the
// queue immediately; a running job's context is canceled and the runner
// finalizes it (discarding the checkpoint — a canceled job does not
// resume). Terminal jobs return ErrFinished.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	switch {
	case j.state.terminal():
		m.mu.Unlock()
		return m.status(j), ErrFinished
	case j.state == StateQueued:
		keep := make([]*job, 0, len(m.queue))
		for _, q := range m.queue {
			if q != j {
				keep = append(keep, q)
			}
		}
		m.queue = keep
		m.mu.Unlock()
		// Out of the queue, no runner can claim the job. Delete its
		// checkpoint before the canceled state becomes visible, so a process
		// that dies in between reloads a queued job, never one already
		// reported canceled.
		m.discard(id)
		m.mu.Lock()
		if j.state != StateQueued { // a concurrent Cancel finished it first
			m.mu.Unlock()
			return m.status(j), ErrFinished
		}
		j.state = StateCanceled
		j.errMsg = errCancelCause.Error()
		j.finished = time.Now()
		j.cp = nil
		m.mu.Unlock()
		m.met.canceled.Inc()
		j.events.publish(Event{Type: EventCanceled, Time: time.Now(),
			State: StateCanceled, Error: errCancelCause.Error()})
		j.events.close()
		return m.status(j), nil
	default: // running: the runner observes the cause and finalizes
		cancel := j.cancel
		m.mu.Unlock()
		cancel(errCancelCause)
		return m.status(j), nil
	}
}

// Trace returns a job's exploration tracer for GET /v1/jobs/{id}/trace.
// ErrNoTrace reports a job submitted without tracing or not yet started; a
// running job returns its live tracer (WriteJSON snapshots safely).
func (m *Manager) Trace(id string) (*obs.Tracer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.trace == nil {
		return nil, ErrNoTrace
	}
	return j.trace, nil
}

// Flight returns a job's convergence journal in canonical form for
// GET /v1/jobs/{id}/flight. The recorder is always on, so any known job
// answers — an unstarted one with an empty series.
func (m *Manager) Flight(id string) ([]obs.FlightSample, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return j.flight.Series(), nil
}

// Subscribe opens a job's event stream from sequence `from` (0 = full
// history).
func (m *Manager) Subscribe(id string, from int) (<-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch, cancel := j.events.subscribe(from)
	return ch, cancel, nil
}

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain begins graceful shutdown: new submissions are rejected, running
// jobs are canceled with the drain cause (the runner checkpoints them and
// returns them to the queue), and queued jobs stay checkpointed on disk for
// the next daemon process. Drain returns when every runner has exited or
// ctx expires.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		for _, j := range m.jobs {
			if j.state == StateRunning {
				j.cancel(errDrainCause)
			}
		}
	}
	m.mu.Unlock()
	m.stopRunner() // wakes runners blocked on an empty queue

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// discard removes a job's checkpoint file (terminal states only).
func (m *Manager) discard(id string) {
	if m.store == nil {
		return
	}
	if err := m.store.Delete(id); err != nil {
		m.logf("service: delete checkpoint %s: %v", id, err)
	}
}

// runner is one worker goroutine: claim the queue head, run it, repeat.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		j, ctx, cancel := m.next()
		if j == nil {
			return
		}
		m.run(ctx, j)
		cancel(nil)
		m.signalWake() // more queued work may be waiting for a free runner
	}
}

// next blocks until a job is available or the manager shuts down. The job's
// run context is created, and its cancel function published, in the same
// critical section that marks the job running, so a Cancel or Drain that
// sees the running state always reaches the run.
func (m *Manager) next() (*job, context.Context, context.CancelCauseFunc) {
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil, nil, nil
		}
		if len(m.queue) > 0 {
			j := m.queue[0]
			m.queue = m.queue[1:]
			ctx, cancel := context.WithCancelCause(m.runCtx)
			j.state = StateRunning
			j.cancel = cancel
			j.started = time.Now()
			wait := j.started.Sub(j.submitted)
			m.running++
			m.mu.Unlock()
			m.met.queueWait.Observe(wait.Seconds())
			return j, ctx, cancel
		}
		m.mu.Unlock()
		select {
		case <-m.runCtx.Done():
			return nil, nil, nil
		case <-m.wake:
		}
	}
}

// run executes one job to a checkpoint or a terminal state.
func (m *Manager) run(ctx context.Context, j *job) {
	if d := j.spec.deadline(m.cfg.DefaultDeadline); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, d, errDeadlineCause)
		defer cancelT()
	}
	m.mu.Lock()
	cp := j.cp
	m.mu.Unlock()
	j.events.publish(Event{Type: EventStarted, Time: time.Now(), State: StateRunning})

	dfgs, err := j.spec.buildDFGs()
	if err != nil {
		m.finish(j, StateFailed, fmt.Sprintf("build workload: %v", err))
		return
	}
	if j.spec.Distributed != nil && m.cfg.Coordinator == nil {
		// A distributed job checkpoint reloaded into a non-coordinator
		// process cannot run anywhere.
		m.finish(j, StateFailed, "distributed job resumed on a server without a coordinator")
		return
	}
	p := j.spec.params()
	cfg := j.spec.machineConfig()
	// Size the shared worker arenas to the job's largest block up front, so
	// no exploration worker grows them mid-run (local runs only — distributed
	// blocks run on the fleet workers' own scratch).
	if j.spec.Distributed == nil {
		m.scratch.Prewarm(dfgs...)
	}

	// Per-job tracing, opted into via "trace": true in the spec. The tracer
	// covers this run only — a job resumed after a drain starts a fresh
	// trace. Observation-only: results are identical with or without it.
	var tr *obs.Tracer
	if j.spec.Trace {
		tr = obs.NewTracer()
		tr.SetPID(0, "job "+j.id)
		tr.NameTrack(0, "blocks")
		m.mu.Lock()
		j.trace = tr
		m.mu.Unlock()
	}

	// Live flight feed: every recorded convergence sample becomes a
	// "flight" SSE event while this run holds the job. The tap is removed
	// on exit so a drained job does not publish into a re-subscribed bus
	// from a stale runner.
	j.flight.SetSink(func(s obs.FlightSample) {
		j.events.publish(Event{Type: EventFlight, Time: time.Now(), Flight: &s})
	})
	defer j.flight.SetSink(nil)

	blocks := append([]BlockResult(nil), cp.Blocks...)
	startBlock, snap := cp.Block, cp.Snapshot
	if startBlock > len(dfgs) {
		m.finish(j, StateFailed, fmt.Sprintf("checkpoint block %d out of range (%d blocks)",
			startBlock, len(dfgs)))
		return
	}
	for bi := startBlock; bi < len(dfgs); bi++ {
		d := dfgs[bi]
		j.flight.SetBlock(bi)
		if j.spec.Distributed != nil {
			blockSpan := tr.Begin("block", 0).Arg("block", int64(bi))
			res, rerr := m.runDistributed(ctx, j, tr, bi, len(dfgs), d.Name)
			blockSpan.End()
			if rerr != nil {
				// Fleet blocks have no local snapshot: a drained distributed
				// job re-runs the interrupted block from its start (finished
				// blocks stay checkpointed).
				m.interrupted(j, ctx, blocks, bi, nil, rerr)
				return
			}
			blocks = m.blockDone(j, blocks, blockResult(d, res), bi, len(dfgs), d.Name)
			continue
		}
		cache := core.NewEvalCache()
		blockSpan := tr.Begin("block", 0).Arg("block", int64(bi))
		opts := core.ResumeOptions{
			Cache:   cache,
			Trace:   tr,
			Flight:  j.flight,
			Scratch: m.scratch,
			OnRestartDone: func(ev core.RestartEvent) {
				e := Event{
					Type:       EventRestart,
					Time:       time.Now(),
					Block:      d.Name,
					BlockIndex: bi,
					BlockTotal: len(dfgs),
					Restart:    ev.Restart,
					Completed:  ev.Completed,
					Total:      ev.Total,
					BestCycles: ev.FinalCycles,
					ISECount:   ev.ISECount,
					Rounds:     ev.Rounds,
					Iterations: ev.Iterations,
				}
				if lookups := ev.CacheHits + ev.CacheMisses; lookups > 0 {
					e.CacheHitRate = float64(ev.CacheHits) / float64(lookups)
				}
				j.events.publish(e)
			},
		}
		var (
			res   *core.Result
			nsnap *core.Snapshot
			rerr  error
		)
		if snap != nil {
			res, nsnap, rerr = core.ResumeFrom(ctx, d, cfg, snap, opts)
			snap = nil
		} else {
			res, nsnap, rerr = core.ExploreResumable(ctx, d, cfg, p, opts)
		}
		blockSpan.End()
		if rerr != nil {
			m.interrupted(j, ctx, blocks, bi, nsnap, rerr)
			return
		}
		blocks = m.blockDone(j, blocks, blockResult(d, res), bi, len(dfgs), d.Name)
	}
	m.finish(j, StateDone, "")
}

// blockDone records one finished block: extend the result list, advance the
// checkpoint past the block, persist it, and emit the progress event.
func (m *Manager) blockDone(j *job, blocks []BlockResult, br BlockResult, bi, total int, name string) []BlockResult {
	blocks = append(blocks, br)
	fl := j.flight.Series() // before m.mu: the recorder has its own lock
	m.mu.Lock()
	j.blocks = append([]BlockResult(nil), blocks...)
	j.cp = &Checkpoint{JobID: j.id, Spec: j.spec, SubmittedAt: j.submitted,
		Blocks: j.blocks, Block: bi + 1, Flight: fl}
	ncp := j.cp
	m.mu.Unlock()
	m.met.cacheHits.Add(float64(br.CacheHits))
	m.met.cacheMisses.Add(float64(br.CacheMisses))
	if m.store != nil {
		if err := m.store.Save(ncp); err != nil {
			m.logf("service: persist job %s: %v", j.id, err)
		}
	}
	j.events.publish(Event{
		Type:       EventBlockDone,
		Time:       time.Now(),
		Block:      name,
		BlockIndex: bi,
		BlockTotal: total,
		BestCycles: br.FinalCycles,
		ISECount:   len(br.ISEs),
	})
	return blocks
}

// runDistributed runs one block on the fleet via the manager's coordinator,
// streaming per-shard completion into the job's event bus. The job's tracer
// and flight recorder ride along as BlockOptions, so the coordinator's
// dispatch spans, the workers' re-based shard spans and the shards'
// convergence samples all land in the same per-job trace and journal the
// local path feeds.
func (m *Manager) runDistributed(ctx context.Context, j *job, tr *obs.Tracer, bi, total int, name string) (*core.Result, error) {
	shards := 1
	if d := j.spec.Distributed; d != nil && d.Shards > 0 {
		shards = d.Shards
	}
	return m.cfg.Coordinator.ExploreBlock(ctx, j.spec.workload(), bi, cluster.BlockOptions{
		Shards: shards,
		Trace:  tr,
		Flight: j.flight,
		OnShardDone: func(ev cluster.ShardEvent) {
			j.events.publish(Event{
				Type:       EventShardDone,
				Time:       time.Now(),
				Block:      name,
				BlockIndex: bi,
				BlockTotal: total,
				Shard:      ev.Shard,
				Shards:     ev.Shards,
				Restart:    ev.FirstRestart,
				Total:      ev.Restarts,
				BestCycles: ev.FinalCycles,
				Retries:    ev.Retries,
			})
		},
	})
}

// interrupted finalizes a job whose exploration returned an error. Cause
// decides the exit: drain checkpoints and requeues, client cancel and
// deadline discard, anything else is a hard failure.
func (m *Manager) interrupted(j *job, ctx context.Context, blocks []BlockResult, bi int, snap *core.Snapshot, rerr error) {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errDrainCause) || (m.runCtx.Err() != nil && !errors.Is(cause, errCancelCause) && !errors.Is(cause, errDeadlineCause)):
		// Drain (explicit cause, or the manager-wide context died first):
		// persist the snapshot and return the job to the queue for the
		// next process. The flight journal rides along so the convergence
		// series survives the restart (the core snapshot carries its own
		// mid-block sidecar; Series() canonicalization collapses overlap).
		cp := &Checkpoint{JobID: j.id, Spec: j.spec, SubmittedAt: j.submitted,
			Blocks: blocks, Block: bi, Snapshot: snap, Flight: j.flight.Series()}
		m.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		j.blocks = append([]BlockResult(nil), blocks...)
		j.cp = cp
		m.running--
		m.mu.Unlock()
		m.met.checkpoints.Inc()
		if m.store != nil {
			if err := m.store.Save(cp); err != nil {
				m.logf("service: checkpoint job %s: %v", j.id, err)
			}
		}
		j.events.publish(Event{Type: EventCheckpointed, Time: time.Now(),
			State: StateQueued, BlockIndex: bi})
		m.logf("service: job %s checkpointed at block %d (snapshot=%v)", j.id, bi, snap != nil)
	case errors.Is(cause, errCancelCause):
		m.finish(j, StateCanceled, cause.Error())
	case errors.Is(cause, errDeadlineCause):
		m.finish(j, StateFailed, cause.Error())
	default:
		m.finish(j, StateFailed, rerr.Error())
	}
}

// finish moves a running job to a terminal state and emits the terminal
// event. The checkpoint is deleted before the terminal state is published:
// a client that sees the job finished must never find its checkpoint, and a
// process that dies in between would otherwise reload and re-run it.
func (m *Manager) finish(j *job, state State, errMsg string) {
	m.discard(j.id)
	now := time.Now()
	m.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	j.cancel = nil
	j.cp = nil
	m.running--
	latency := now.Sub(j.started)
	m.mu.Unlock()

	evType := EventDone
	switch state {
	case StateDone:
		m.met.done.Inc()
		m.met.latency.Observe(latency.Seconds())
	case StateFailed:
		m.met.failed.Inc()
		evType = EventFailed
	case StateCanceled:
		m.met.canceled.Inc()
		evType = EventCanceled
	}
	j.events.publish(Event{Type: evType, Time: now, State: state, Error: errMsg})
	j.events.close()
}
