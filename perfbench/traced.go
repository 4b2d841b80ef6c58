package main

import (
	"context"
	"fmt"
	"time"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics in BENCHMARK.json order. Times
// and counts are per op unless the name says otherwise; a layer a workload
// never calls reads 0.
var layerMetrics = []layerMetric{
	{"match.find_ms", "ms"}, {"match.find_calls", "count"}, {"match.mappings", "count"},
	{"merging.merge_ms", "ms"}, {"merging.groups", "count"},
	{"replace.apply_cold_ms", "ms"}, {"replace.apply_warm_ms", "ms"}, {"replace.instances", "count"},
	{"flow.build_pool_ms", "ms"}, {"flow.evaluate_cold_ms", "ms"}, {"flow.evaluate_warm_ms", "ms"},
	{"core.explore_ms", "ms"}, {"core.evalcache_hit_ratio", "ratio"}, {"core.evalcache_misses", "count"},
	{"baseline.explore_ms", "ms"},
	{"sched.base_ms", "ms"}, {"sched.price_ms", "ms"}, {"sched.calls", "count"},
	{"vm.profile_ms", "ms"}, {"dfg.build_ms", "ms"}, {"dfg.hot_nodes", "count"},
	{"selection.select_us", "us"},
	{"service.submit_ms", "ms"}, {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
	{"cluster.shards_per_job", "count"}, {"cluster.shard_retries", "count"}, {"cluster.remote_hit_ratio", "ratio"},
	{"proc.cpu_ms_per_op", "ms"}, {"proc.gc_per_op", "count"}, {"proc.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"}, {"trace.unaccounted_pct", "%"},
	{"trace.match_share_pct", "%"}, {"trace.explore_share_pct", "%"},
}

// The layers the workloads were chosen to separate.
var (
	matchLayers   = map[string]bool{"merging.merge": true, "replace.apply_cold": true}
	exploreLayers = map[string]bool{"core.explore": true, "baseline.explore": true}
)

// tracedRun executes every op twice, once through the library and once
// re-enacted with spans, alternating which goes first. The two executions
// must give identical answers; the re-enactment's spans give the per-layer
// metrics and the library executions the process metrics.
func tracedRun(ctx context.Context, e env, ops []op, seconds float64, traceOut string) (*output, error) {
	rec := newRecorder()
	fe, fleet := e.(*fleetEnv)
	var before map[string]float64
	if fleet {
		var err error
		if before, err = fe.clusterCounters(ctx); err != nil {
			return nil, err
		}
	}
	out := &output{Metrics: map[string]metric{}}
	var plain, traced []sample
	start := time.Now()
	for i, o := range ops {
		if time.Since(start) > budget(seconds) {
			fmt.Printf("budget exhausted after %d of %d ops\n", i, len(ops))
			break
		}
		var sp, st sample
		var rp, rt *result
		if i%2 == 0 {
			sp, rp = measureOp(ctx, e, i, o, nil)
			st, rt = measureOp(ctx, e, i, o, rec)
		} else {
			st, rt = measureOp(ctx, e, i, o, rec)
			sp, rp = measureOp(ctx, e, i, o, nil)
		}
		err := sp.err
		if err == nil {
			err = st.err
		}
		if err == nil && rp.fingerprint != rt.fingerprint {
			err = fmt.Errorf("re-enacted answers differ from the library's:\n library %s\n traced  %s", rp.fingerprint, rt.fingerprint)
		}
		if err == nil {
			err = e.check(ctx, i, o, rt, rec)
		}
		out.Attempted++
		if err != nil {
			out.Failed++
			fmt.Printf("op %d (%s) failed: %v\n", i, o, err)
		}
		plain, traced = append(plain, sp), append(traced, st)
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	n := float64(out.Attempted)

	spanMS, spanN := rec.totals()
	perOp := func(v float64) float64 { return v / n }
	m := func(name string, v float64) { out.Metrics[name] = metric{v, unitOf(name)} }
	for _, lm := range layerMetrics {
		m(lm.name, 0)
	}
	for _, name := range []string{"match.find_ms", "match.find_calls", "match.mappings", "merging.groups",
		"replace.instances", "core.evalcache_misses", "sched.calls", "dfg.hot_nodes"} {
		m(name, perOp(rec.counts[name]))
	}
	for _, name := range []string{"merging.merge", "replace.apply_cold", "replace.apply_warm", "flow.build_pool",
		"flow.evaluate_cold", "flow.evaluate_warm", "core.explore", "baseline.explore", "sched.base",
		"sched.price", "vm.profile", "dfg.build", "service.submit", "service.queue_wait", "service.run"} {
		m(name+"_ms", perOp(spanMS[name]))
	}
	if k := spanN["selection.select"]; k > 0 {
		m("selection.select_us", 1000*spanMS["selection.select"]/float64(k))
	}
	m("core.evalcache_hit_ratio", ratio(rec.counts["core.evalcache_hits"], rec.counts["core.evalcache_misses"]))

	var sumPlain, sumTraced, cpu, gcs, uncovered, matchMS, exploreMS float64
	for i, s := range traced {
		sumPlain += plain[i].ms
		sumTraced += s.ms
		cpu += plain[i].cpuMS
		gcs += float64(plain[i].gcs)
	}
	for _, s := range rec.spans {
		if s.Name != "op" {
			continue
		}
		uncovered += s.ms() - rec.covered(s.Op, s.Start, s.End, nil)
		matchMS += rec.covered(s.Op, s.Start, s.End, matchLayers)
		exploreMS += rec.covered(s.Op, s.Start, s.End, exploreLayers)
	}
	m("proc.cpu_ms_per_op", perOp(cpu))
	m("proc.gc_per_op", perOp(gcs))
	m("proc.peak_rss_mb", peakRSSMB())
	m("trace.overhead_pct", 100*(sumTraced/sumPlain-1))
	m("trace.unaccounted_pct", 100*uncovered/sumTraced)
	m("trace.match_share_pct", 100*matchMS/sumTraced)
	m("trace.explore_share_pct", 100*exploreMS/sumTraced)

	if fleet {
		after, err := fe.clusterCounters(ctx)
		if err != nil {
			return nil, err
		}
		d := func(k string) float64 { return after[k] - before[k] }
		m("cluster.shards_per_job", d("ise_cluster_shards_total")/(2*n))
		m("cluster.shard_retries", d("ise_cluster_shard_retries_total"))
		m("cluster.remote_hit_ratio", ratio(d("ise_cluster_cache_remote_hits_total"), d("ise_cluster_cache_remote_misses_total")))
	}
	if err := rec.writeChrome(traceOut); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d spans to %s\n", len(rec.spans), traceOut)
	return out, nil
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func unitOf(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	panic("perfbench: unknown layer metric " + name)
}
