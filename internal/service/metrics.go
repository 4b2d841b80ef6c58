package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// latencyBuckets cover job lifetimes from millisecond toy jobs to
// multi-hour explorations.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 300, 1800, 3600,
}

// metrics aggregates the service-level counters and histograms on a
// per-Manager obs registry. The registry is per Manager (not obs.Default) so
// every manager — the tests build many — starts from zero and serves its own
// gauges; /metrics merges it with the process-global engine registry.
//
// This replaces the previous hand-rolled mutex struct whose latency ring
// quantile mis-indexed partially filled rings (p99 of a 1-sample ring read
// past the data); obs.Histogram.Quantile is well-defined at every sample
// count, which TestHistogramQuantile pins at 0, 1, 2 and 513 samples.
type metrics struct {
	reg *obs.Registry

	submitted   *obs.Counter
	rejected    *obs.Counter
	resumed     *obs.Counter
	done        *obs.Counter
	failed      *obs.Counter
	canceled    *obs.Counter
	checkpoints *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	latency     *obs.Histogram
	queueWait   *obs.Histogram
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:         reg,
		submitted:   reg.Counter("jobs_submitted_total", "Jobs accepted by POST /v1/jobs."),
		rejected:    reg.Counter("jobs_rejected_total", "Submissions rejected (queue full or draining)."),
		resumed:     reg.Counter("jobs_resumed_total", "Jobs reloaded from checkpoints at startup."),
		done:        reg.Counter("jobs_done_total", "Jobs finished successfully."),
		failed:      reg.Counter("jobs_failed_total", "Jobs failed (error or deadline)."),
		canceled:    reg.Counter("jobs_canceled_total", "Jobs canceled by clients."),
		checkpoints: reg.Counter("checkpoints_total", "Drain checkpoints taken."),
		cacheHits:   reg.Counter("eval_cache_hits_total", "Schedule-evaluation cache hits summed over finished blocks."),
		cacheMisses: reg.Counter("eval_cache_misses_total", "Schedule-evaluation cache misses summed over finished blocks."),
		latency:     reg.Histogram("job_latency_seconds", "Running time of successfully finished jobs.", latencyBuckets),
		queueWait:   reg.Histogram("job_queue_wait_seconds", "Time from submission to a runner claiming the job.", latencyBuckets),
	}
}

// WritePrometheus writes the manager's registry followed by the
// process-global engine registry (eval-cache, scheduler, worker-pool
// metrics) in Prometheus text exposition format — the default body of
// GET /metrics. The two registries use disjoint family names (unprefixed
// legacy service names vs. ise_*), so concatenation is a valid exposition.
func (m *Manager) WritePrometheus(w io.Writer) error {
	if err := m.met.reg.WritePrometheus(w); err != nil {
		return err
	}
	return obs.Default.WritePrometheus(w)
}

// MetricsDump snapshots this node's registries — the service registry plus
// the process-global engine registry — as one machine-readable dump: the
// body of GET /metrics?format=dump, which fleet coordinators scrape instead
// of re-parsing the text exposition (exact histogram buckets, no float
// round-tripping).
func (m *Manager) MetricsDump() obs.RegistryDump {
	return obs.MergeDumps(m.met.reg.Dump(), obs.Default.Dump())
}

// fleetScrapeTimeout bounds each worker scrape of WriteFleetMetrics so one
// hung worker cannot stall the whole fleet exposition.
const fleetScrapeTimeout = 5 * time.Second

// WriteFleetMetrics renders the merged fleet exposition for
// GET /v1/fleet/metrics: this coordinator's own dump under node
// "coordinator" plus one dump per registered worker that advertised a
// metrics URL, every sample tagged with its `node` label and histogram
// families summed into a synthetic node="fleet" series
// (obs.WriteFleetExposition). Workers that fail to answer within the scrape
// timeout are logged and skipped — a flaky node must not take the fleet
// view down. ErrNoFleet when this server is not a coordinator.
func (m *Manager) WriteFleetMetrics(ctx context.Context, w io.Writer) error {
	coord := m.cfg.Coordinator
	if coord == nil {
		return ErrNoFleet
	}
	nodes := []obs.NodeDump{{Node: "coordinator", Dump: m.MetricsDump()}}
	for _, n := range coord.FleetNodes() {
		if n.MetricsURL == "" {
			continue // registered but not scrapable: listed by FleetNodes only
		}
		d, err := scrapeDump(ctx, n.MetricsURL)
		if err != nil {
			m.logf("service: fleet scrape %s (%s): %v", n.Name, n.MetricsURL, err)
			continue
		}
		nodes = append(nodes, obs.NodeDump{Node: n.Name, Dump: d})
	}
	return obs.WriteFleetExposition(w, nodes)
}

// scrapeDump fetches one worker's registry dump from its advertised
// /metrics endpoint (the ?format=dump body).
func scrapeDump(ctx context.Context, metricsURL string) (obs.RegistryDump, error) {
	ctx, cancel := context.WithTimeout(ctx, fleetScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, metricsURL+"?format=dump", nil)
	if err != nil {
		return obs.RegistryDump{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return obs.RegistryDump{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.RegistryDump{}, fmt.Errorf("scrape status %s", resp.Status)
	}
	var d obs.RegistryDump
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&d); err != nil {
		return obs.RegistryDump{}, fmt.Errorf("decode dump: %w", err)
	}
	return d, nil
}
