package obs

import (
	"sort"
	"sync"
)

// Flight-sample kinds recorded by the exploration stack. The flight
// recorder is a free-form journal — any kind string is legal — but the
// engine and service agree on these:
const (
	// FlightRound is one per-round convergence sample: Restart and Round
	// locate it, Value is the best schedule length (cycles) seen by that
	// restart at the end of that round, Aux is the candidate ISE count.
	// Round samples are a pure function of the exploration inputs, so
	// the round series is byte-identical across checkpoint/resume.
	FlightRound = "round"
	// FlightCache is an eval-cache snapshot at the end of a restart:
	// Value is the hit rate in [0,1], Aux the total lookups. Cache
	// traffic depends on timing and on what other work warmed the cache,
	// so cache samples sit outside the determinism comparison.
	FlightCache = "cache"
	// FlightShard is a shard lifecycle event recorded by the cluster
	// coordinator: Restart is the shard index, Round the dispatch
	// attempt, Label one of "claim", "retry", "done", "failed".
	FlightShard = "shard"
)

// FlightSample is one entry of the convergence flight recorder. Samples
// deliberately carry no wall-clock timestamp: the journal records how the
// search converged (merit by round), not when, which is what lets the
// deterministic kinds compare byte-identical across checkpoint/resume and
// re-dispatch. Wall-time questions belong to the tracer.
type FlightSample struct {
	Kind string `json:"kind"`
	// Block locates the sample in a multi-block job. The engine records
	// with the recorder's current block (SetBlock); the cluster
	// coordinator rebases worker samples with MergeRebased.
	Block   int     `json:"block,omitempty"`
	Restart int     `json:"restart,omitempty"`
	Round   int     `json:"round,omitempty"`
	Label   string  `json:"label,omitempty"`
	Value   float64 `json:"value"`
	Aux     float64 `json:"aux,omitempty"`
}

// key is the sample's identity for sorting and deduplication: everything
// except the measured values.
func (s FlightSample) key() FlightSample {
	s.Value, s.Aux = 0, 0
	return s
}

func sampleLess(a, b FlightSample) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	if a.Restart != b.Restart {
		return a.Restart < b.Restart
	}
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	return a.Label < b.Label
}

// Flight is a bounded, observation-only ring journal of how one job's
// search converged. The exploration loop records into it and never reads
// it back (the obspurity lint pass enforces that, like it does for the
// rest of obs); the service serves it as /v1/jobs/{id}/flight and as
// incremental SSE events.
//
// A nil *Flight is the disabled recorder: Record is a plain nil check with
// no allocation and no lock, so the engine's zero-alloc contract holds
// with flight instrumentation compiled in (pinned by
// BenchmarkFlightDisabled and TestExploreSteadyStateAllocs).
//
// When the ring is full the oldest sample is overwritten: a runaway job
// bounds its journal, keeping the most recent window.
type Flight struct {
	mu    sync.Mutex
	buf   []FlightSample     // guarded by mu — ring storage, cap bounded
	start int                // guarded by mu — index of the oldest sample
	sink  func(FlightSample) // guarded by mu — optional live-event tap
	block int                // guarded by mu — Block stamped on Record samples
	max   int
}

// DefaultFlightCap bounds a job's flight journal when the caller does not
// choose: enough for thousands of round samples without letting a
// pathological job grow without bound.
const DefaultFlightCap = 8192

// NewFlight returns an enabled recorder holding at most capacity samples
// (DefaultFlightCap if capacity ≤ 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Flight{max: capacity}
}

// Enabled reports whether samples recorded on f are kept.
func (f *Flight) Enabled() bool { return f != nil }

// SetBlock sets the Block coordinate stamped on subsequently recorded
// samples — the service advances it as a multi-block job moves through
// its blocks. Restored and merged samples keep their own blocks.
func (f *Flight) SetBlock(block int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.block = block
	f.mu.Unlock()
}

// Record appends one sample at the current block. Safe and free on a nil
// recorder.
func (f *Flight) Record(kind string, restart, round int, value, aux float64) {
	if f == nil {
		return
	}
	f.record(FlightSample{Kind: kind, Block: -1, Restart: restart, Round: round, Value: value, Aux: aux})
}

// RecordEvent appends one labeled sample (shard lifecycle events) at the
// current block. Safe and free on a nil recorder.
func (f *Flight) RecordEvent(kind, label string, restart, round int, value float64) {
	if f == nil {
		return
	}
	f.record(FlightSample{Kind: kind, Block: -1, Restart: restart, Round: round, Label: label, Value: value})
}

// record stores s; a Block of -1 means "stamp the current block".
func (f *Flight) record(s FlightSample) {
	f.mu.Lock()
	if s.Block == -1 {
		s.Block = f.block
	}
	if len(f.buf) < f.max {
		f.buf = append(f.buf, s)
	} else {
		f.buf[f.start] = s
		f.start++
		if f.start == f.max {
			f.start = 0
		}
	}
	sink := f.sink
	f.mu.Unlock()
	if sink != nil {
		sink(s)
	}
}

// Len returns the number of buffered samples.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// SetSink installs fn as a live tap called (outside the recorder lock)
// with every subsequently recorded sample — the service's SSE feed. A nil
// fn removes the tap.
func (f *Flight) SetSink(fn func(FlightSample)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.sink = fn
	f.mu.Unlock()
}

// Series returns the journal in canonical form: sorted by (kind, restart,
// round, label) and deduplicated on that identity, keeping the first
// recorded occurrence. Replayed work after a checkpoint resume re-records
// the same deterministic samples, so canonicalization makes the series a
// pure function of how far the search got — byte-identical whether or not
// the run was interrupted.
func (f *Flight) Series() []FlightSample {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]FlightSample, 0, len(f.buf))
	out = append(out, f.buf[f.start:]...)
	out = append(out, f.buf[:f.start]...)
	f.mu.Unlock()
	// Stable sort keeps recording order within one identity, so the
	// dedup below keeps the earliest occurrence.
	sort.SliceStable(out, func(i, j int) bool { return sampleLess(out[i], out[j]) })
	dedup := out[:0]
	for _, s := range out {
		if len(dedup) > 0 && dedup[len(dedup)-1].key() == s.key() {
			continue
		}
		dedup = append(dedup, s)
	}
	return dedup
}

// Restore replaces the journal with samples — the snapshot sidecar a
// resumed job carries. Samples beyond the ring capacity keep the newest.
func (f *Flight) Restore(samples []FlightSample) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(samples) > f.max {
		samples = samples[len(samples)-f.max:]
	}
	f.buf = append(f.buf[:0], samples...)
	f.start = 0
}

// Merge records every sample of series into f, keeping each sample's own
// coordinates. Safe on a nil recorder.
func (f *Flight) Merge(series []FlightSample) {
	if f == nil {
		return
	}
	for _, s := range series {
		f.record(s)
	}
}

// MergeRebased records series with every sample moved to block and its
// restart index shifted by restartOffset — how the coordinator folds a
// worker's shard journal (whose restarts are shard-local, starting at 0)
// into the distributed job's journal at the shard's global position. Safe
// on a nil recorder.
func (f *Flight) MergeRebased(series []FlightSample, block, restartOffset int) {
	if f == nil {
		return
	}
	for _, s := range series {
		s.Block = block
		s.Restart += restartOffset
		f.record(s)
	}
}
