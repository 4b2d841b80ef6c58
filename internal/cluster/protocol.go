package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// ShardSpec identifies one shard: a contiguous restart window of one job's
// block exploration. The worker derives the shard's exploration parameters
// from it (shardParams), which makes restart FirstRestart+j of the shard run
// with the global job seed of restart FirstRestart+j — the identity that
// keeps sharding outside the determinism contract.
type ShardSpec struct {
	Job    string `json:"job"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	// Block indexes the workload's hot-block list.
	Block int `json:"block"`
	// FirstRestart and Restarts delimit the contiguous restart window
	// [FirstRestart, FirstRestart+Restarts).
	FirstRestart int `json:"first_restart"`
	Restarts     int `json:"restarts"`
	// Workload rebuilds the job's DFGs on the worker; its Params are the
	// whole job's parameters.
	Workload Workload `json:"workload"`
}

// shardParams returns the core parameters the shard's exploration runs
// with: the job's parameters with the restart window rebased, so shard-local
// restart j draws from the seed of global restart FirstRestart+j.
func (s ShardSpec) shardParams() core.Params {
	p := s.Workload.Params
	p.Restarts = s.Restarts
	p.Seed = p.Seed + int64(s.FirstRestart)*7919
	return p
}

// ShardEnvelope is the claim response: the shard plus, on a re-dispatch, the
// last snapshot the lost worker uploaded — the new worker resumes from it
// via core.ResumeFrom instead of starting over.
type ShardEnvelope struct {
	Spec     ShardSpec      `json:"spec"`
	Snapshot *core.Snapshot `json:"snapshot,omitempty"`
}

// claimRequest asks for the next pending shard. MetricsURL, when set,
// advertises where the worker's Prometheus /metrics endpoint lives; the
// coordinator's fleet registry serves it to the /v1/fleet/metrics
// aggregator.
type claimRequest struct {
	Worker     string `json:"worker"`
	MetricsURL string `json:"metrics_url,omitempty"`
}

// heartbeatRequest renews a shard's lease. Snapshot, when present, replaces
// the shard's re-dispatch checkpoint. CacheHits/CacheMisses are the worker's
// cumulative local eval-cache counters for the shard, exposed per shard
// index on the coordinator's /metrics.
type heartbeatRequest struct {
	Worker      string         `json:"worker"`
	Snapshot    *core.Snapshot `json:"snapshot,omitempty"`
	CacheHits   uint64         `json:"cache_hits"`
	CacheMisses uint64         `json:"cache_misses"`
}

// resultRequest delivers a shard's outcome: the serialized best result of
// its restart window, or a terminal error message. Cache counters as in
// heartbeatRequest.
//
// The trailing fields are the shard's observability sidecar (DESIGN.md
// §16), all outside the determinism contract: Trace is the worker's
// buffered shard spans with its local trace epoch, Clock the worker's
// clock-offset estimate against this coordinator (the coordinator rebases
// Trace onto its own timeline with it), and Flight the shard's convergence
// journal in shard-local restart coordinates.
type resultRequest struct {
	Worker      string             `json:"worker"`
	Error       string             `json:"error,omitempty"`
	Result      *core.ResultState  `json:"result,omitempty"`
	CacheHits   uint64             `json:"cache_hits"`
	CacheMisses uint64             `json:"cache_misses"`
	Trace       obs.TraceExport    `json:"trace,omitempty"`
	Clock       obs.ClockState     `json:"clock,omitempty"`
	Flight      []obs.FlightSample `json:"flight,omitempty"`
}
