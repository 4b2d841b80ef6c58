package core

import (
	"strconv"

	"repro/internal/obs"
)

// Process-wide engine metrics, registered on the obs.Default registry and
// served by cmd/iseserve's /metrics (merged with the service registry).
// These are observation-only: the engine writes them and never reads them
// back (enforced by iselint's obspurity pass); the per-Result cache counters
// that feed determinism-excluded Result fields stay on EvalCache's own
// atomics.
var obsCacheHits [evalShards]*obs.Counter

func init() {
	for i := range obsCacheHits {
		obsCacheHits[i] = obs.Default.Counter("ise_evalcache_hits_total",
			"Schedule-evaluation cache hits per shard.", "shard", strconv.Itoa(i))
	}
}
