package cluster

import (
	"strconv"

	"repro/internal/obs"
)

// Fleet metrics on the obs.Default registry, served by the coordinator's
// /metrics. Observation-only — no exploration decision ever reads them back
// (obspurity).
var (
	obsShardsCreated = obs.Default.Counter("ise_cluster_shards_total",
		"Shards created by the coordinator (one per contiguous restart range per block job).")
	obsShardRetries = obs.Default.Counter("ise_cluster_shard_retries_total",
		"Shard re-dispatches: heartbeat leases that lapsed plus worker-reported shard errors.")
)

// shardCacheHits is the per-shard-index hit family, created lazily per label
// value (the registry get-or-creates series). It mirrors each worker's local
// eval-cache hits so cache reuse is observable per shard on one coordinator
// scrape.
func shardCacheHits(shard int) *obs.Counter {
	return obs.Default.Counter("ise_cluster_shard_cache_hits_total",
		"Worker-local eval-cache hits, by shard index (reported with heartbeats and results).",
		"shard", strconv.Itoa(shard))
}
