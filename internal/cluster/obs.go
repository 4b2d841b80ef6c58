package cluster

import (
	"strconv"

	"repro/internal/obs"
)

// Fleet metrics on the obs.Default registry, served by whichever process's
// /metrics scrapes them: shard lifecycle and retry counters live on the
// coordinator, shard run/abandon counters on the workers. All
// observation-only — no exploration decision ever reads them back
// (obspurity).
var (
	obsShardsCreated = obs.Default.Counter("ise_cluster_shards_total",
		"Shards created by the coordinator (one per contiguous restart range per block job).")
	obsShardsClaimed = obs.Default.Counter("ise_cluster_shards_claimed_total",
		"Shard claims handed to workers, including re-dispatches after a lost lease.")
	obsShardsDone = obs.Default.Counter("ise_cluster_shards_done_total",
		"Shards that delivered a result.")
	obsShardRetries = obs.Default.Counter("ise_cluster_shard_retries_total",
		"Shard re-dispatches: heartbeat leases that lapsed plus worker-reported shard errors.")
	obsSnapshotUploads = obs.Default.Counter("ise_cluster_snapshot_uploads_total",
		"Mid-shard snapshots uploaded with worker heartbeats (the re-dispatch checkpoints).")
	obsJobsDone = obs.Default.Counter("ise_cluster_jobs_total",
		"Distributed block jobs finished, by outcome.", "outcome", "done")
	obsJobsFailed = obs.Default.Counter("ise_cluster_jobs_total",
		"Distributed block jobs finished, by outcome.", "outcome", "failed")
	obsWorkerShardsRun = obs.Default.Counter("ise_cluster_worker_shards_total",
		"Shards this worker ran to a posted result (successful or error).")
	obsWorkerAbandoned = obs.Default.Counter("ise_cluster_worker_abandoned_total",
		"Shards this worker abandoned mid-run (lost lease or canceled context).")
)

// Per-shard-index counter families, created lazily per label value (the
// registry get-or-creates series). The pair mirrors each worker's local
// eval-cache counters so cache efficacy is observable per shard on one
// coordinator scrape.
func shardCacheHits(shard int) *obs.Counter {
	return obs.Default.Counter("ise_cluster_shard_cache_hits_total",
		"Worker-local eval-cache hits, by shard index (reported with heartbeats and results).",
		"shard", strconv.Itoa(shard))
}

func shardCacheMisses(shard int) *obs.Counter {
	return obs.Default.Counter("ise_cluster_shard_cache_misses_total",
		"Worker-local eval-cache misses, by shard index (reported with heartbeats and results).",
		"shard", strconv.Itoa(shard))
}
