package service

import (
	"strings"
	"testing"

	"repro/internal/obs"

	// Linked so their families register too: the service itself does not
	// import the flow or the SI baseline.
	_ "repro/internal/baseline"
	_ "repro/internal/flow"
)

// engineFamilies is every ise_* family the engine may register on
// obs.Default, served by /metrics next to the service registry. Each has a
// reader; a new family is added here together with its reader.
var engineFamilies = map[string]bool{
	"ise_build_info":                     true, // TestRegisterBuildInfo, cluster smoke
	"ise_evalcache_hits_total":           true, // serve smoke
	"ise_sched_schedule_calls_total":     true, // serve smoke
	"ise_parallel_items_total":           true, // serve smoke
	"ise_explore_arena_grows_total":      true, // TestPrewarmedExploreGrowsNoArenas
	"ise_cluster_shards_total":           true, // perfbench, cluster smoke
	"ise_cluster_shard_retries_total":    true, // perfbench, fault tests, cluster smoke
	"ise_cluster_shard_cache_hits_total": true, // cluster smoke
}

// initFamilies are the engineFamilies that package init registers. The rest
// appear on use: ise_build_info when a command calls obs.RegisterBuildInfo,
// the shard-cache hits when a coordinator first shards a job.
var initFamilies = []string{
	"ise_cluster_shard_retries_total",
	"ise_cluster_shards_total",
	"ise_evalcache_hits_total",
	"ise_explore_arena_grows_total",
	"ise_parallel_items_total",
	"ise_sched_schedule_calls_total",
}

// TestEngineFamilies pins the engine's metric surface: no ise_* family is
// served that engineFamilies does not name, and the init-time ones are all
// registered.
func TestEngineFamilies(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range obs.Default.Dump().Families {
		if !strings.HasPrefix(f.Name, "ise_") {
			continue
		}
		seen[f.Name] = true
		if !engineFamilies[f.Name] {
			t.Errorf("obs.Default registers %s, which engineFamilies does not name", f.Name)
		}
	}
	for _, name := range initFamilies {
		if !engineFamilies[name] {
			t.Errorf("init family %s is missing from engineFamilies", name)
		}
		if !seen[name] {
			t.Errorf("obs.Default does not register %s at init", name)
		}
	}
}

// serviceFamilies is every family a Manager registers on its own registry,
// served by /metrics before the engine's, each with the test that reads its
// value after the event it counts. A new family is added here together with
// its reader.
var serviceFamilies = map[string]string{
	"jobs_submitted_total":    "TestMetricsShape, serve smoke",
	"jobs_rejected_total":     "TestQueueOverflowRejects",
	"jobs_resumed_total":      "TestResumeAfterDrainDeterminism",
	"jobs_done_total":         "TestMetricsShape, serve smoke",
	"jobs_failed_total":       "TestJobDeadlineFails",
	"jobs_canceled_total":     "TestCancelRunningJob, TestConcurrentCancelQueuedJob",
	"checkpoints_total":       "TestResumeAfterDrainDeterminism",
	"eval_cache_hits_total":   "TestMetricsShape",
	"eval_cache_misses_total": "TestMetricsShape",
	"job_latency_seconds":     "TestMetricsShape, serve smoke",
	"job_queue_wait_seconds":  "TestMetricsShape",
	"queue_depth":             "TestHTTPHealthAndMetrics",
	"jobs_running":            "TestCancelRunningJob",
}

// TestServiceFamilies pins the service registry: a Manager registers exactly
// the families serviceFamilies names.
func TestServiceFamilies(t *testing.T) {
	m := newTestManager(t, Config{Runners: 1})
	seen := map[string]bool{}
	for _, f := range m.met.reg.Dump().Families {
		seen[f.Name] = true
		if serviceFamilies[f.Name] == "" {
			t.Errorf("the service registry has %s, which serviceFamilies does not name", f.Name)
		}
	}
	for name := range serviceFamilies {
		if !seen[name] {
			t.Errorf("the service registry does not register %s", name)
		}
	}
}
