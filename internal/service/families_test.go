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
	"ise_build_info":                       true, // TestRegisterBuildInfo, cluster smoke
	"ise_evalcache_hits_total":             true, // serve smoke
	"ise_evalcache_misses_total":           true, // the hit ratio's denominator
	"ise_sched_schedule_calls_total":       true, // serve smoke
	"ise_parallel_items_total":             true, // serve smoke
	"ise_explore_arena_grows_total":        true, // TestPrewarmedExploreGrowsNoArenas
	"ise_explore_rounds_total":             true, // the iteration-cap study (ROADMAP item 1)
	"ise_explore_iterations_total":         true, // the iteration-cap study (ROADMAP item 1)
	"ise_cluster_shards_total":             true, // perfbench, cluster smoke
	"ise_cluster_shard_retries_total":      true, // perfbench, fault tests, cluster smoke
	"ise_cluster_shard_cache_hits_total":   true, // cluster smoke
	"ise_cluster_shard_cache_misses_total": true, // the per-shard hit ratio's denominator
}

// initFamilies are the engineFamilies that package init registers. The rest appear on use: ise_build_info
// when a command calls obs.RegisterBuildInfo, the shard-cache pair when a
// coordinator first sees a shard's cache counters.
var initFamilies = []string{
	"ise_cluster_shard_retries_total",
	"ise_cluster_shards_total",
	"ise_evalcache_hits_total",
	"ise_evalcache_misses_total",
	"ise_explore_arena_grows_total",
	"ise_explore_iterations_total",
	"ise_explore_rounds_total",
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
