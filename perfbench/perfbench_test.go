package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/service"
)

func TestOpListIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := w.opList(7, 24), w.opList(7, 24)
		if !reflect.DeepEqual(a, b) || opListHash(a) != opListHash(b) {
			t.Errorf("%s: same seed gave different op lists", name)
		}
		if opListHash(a) == opListHash(w.opList(8, 24)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

func TestOpListShapes(t *testing.T) {
	kernels := map[string]int{}
	for i, o := range workloads["flow-match"].opList(1, 30) {
		kernels[o.Flow.Kernel]++
		want := []flow.Algorithm{flow.MI, flow.SI}[i%2]
		if len(o.Flow.Algos) != 1 || o.Flow.Algos[0] != want {
			t.Fatalf("flow-match op %d runs %v, want %s", i, o.Flow.Algos, want)
		}
	}
	if kernels["crc32"] != 24 || kernels["adpcm"] != 6 {
		t.Errorf("flow-match kernel mix %v, want crc32 24 and adpcm 6", kernels)
	}
	for _, o := range workloads["flow-explore"].opList(1, 20) {
		if o.Flow.Kernel != "jpeg" || len(o.Flow.Algos) != 2 || o.Flow.Machine == 5 || o.Flow.Seed > 5 {
			t.Fatalf("flow-explore op %s", o)
		}
	}
	seen := map[fleetOp]bool{}
	repeats := 0
	for i, o := range workloads["fleet-jobs"].opList(1, 40) {
		f := *o.Fleet
		f.Repeat = false
		if o.Fleet.Repeat != seen[f] {
			t.Fatalf("fleet-jobs op %d: repeat=%v, spec seen before=%v", i, o.Fleet.Repeat, seen[f])
		}
		if o.Fleet.Repeat {
			repeats++
		}
		seen[f] = true
	}
	if repeats != 10 {
		t.Errorf("fleet-jobs: %d repeats in 40 ops, want 10", repeats)
	}
}

// TestOpMultisetIsSeedIndependent: seeds deal the same ops in another
// order, so every run of a workload gives the same answers.
func TestOpMultisetIsSeedIndependent(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		set := func(seed int64) []string {
			var s []string
			for _, o := range w.opList(seed, 30) {
				s = append(s, o.String())
			}
			sort.Strings(s)
			return s
		}
		if !reflect.DeepEqual(set(1), set(2)) {
			t.Errorf("%s: seeds 1 and 2 run different ops", name)
		}
	}
}

// corrupting wraps an env and falsifies the answer of one op after it ran.
type corrupting struct {
	env
	op      int
	corrupt func(*result)
}

func (c corrupting) run(ctx context.Context, i int, o op, rec *recorder) (*result, error) {
	r, err := c.env.run(ctx, i, o, rec)
	if err == nil && i == c.op {
		c.corrupt(r)
	}
	return r, err
}

// TestCorruptedFlowAnswerCountsAsFailure: a design point whose reported
// cycle count disagrees with executing the program is a failed op, and
// the run is marked incorrect rather than dropping the op.
func TestCorruptedFlowAnswerCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	e := &flowEnv{}
	ops := []op{
		{Flow: &flowOp{Kernel: "bitcount", Opt: "O3", Algos: []flow.Algorithm{flow.MI}, Seed: 3}},
		{Flow: &flowOp{Kernel: "dijkstra", Opt: "O3", Machine: 2, Algos: []flow.Algorithm{flow.SI}, Seed: 4}},
	}
	clean := summarize(measureOps(ctx, e, ops, 10))
	if !clean.Correct || clean.Failed != 0 {
		t.Fatalf("clean run: %+v", clean)
	}
	bad := corrupting{env: e, op: 1, corrupt: func(r *result) {
		r.detail.([]*flowAnswer)[0].points[3].final++
	}}
	out := summarize(measureOps(ctx, bad, ops, 10))
	if out.Correct || out.Failed != 1 || out.Attempted != 2 || out.Metrics["op_ok_pct"].Value != 50 {
		t.Fatalf("corrupted run: %+v", out)
	}
}

// TestCorruptedBaseFailsCheck: a base cycle count that disagrees with
// executing the all-software program fails the check.
func TestCorruptedBaseFailsCheck(t *testing.T) {
	ctx := context.Background()
	e := &flowEnv{}
	o := op{Flow: &flowOp{Kernel: "bitcount", Opt: "O3", Algos: []flow.Algorithm{flow.MI}, Seed: 3}}
	r, err := e.run(ctx, 0, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := r.detail.([]*flowAnswer)[0]
	a.base--
	if err := e.check(ctx, 0, o, r, nil); err == nil {
		t.Fatal("corrupted base cycles passed the check")
	}
}

// TestCorruptedFleetAnswerCountsAsFailure runs real distributed jobs on an
// in-process fleet and requires a falsified block result to be counted.
func TestCorruptedFleetAnswerCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet")
	}
	ctx := context.Background()
	e, err := setupFleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ops := workloads["fleet-jobs"].opList(1, 4)[:2]
	bad := corrupting{env: e, op: 0, corrupt: func(r *result) {
		r.detail.(*service.JobStatus).Blocks[0].FinalCycles++
	}}
	out := summarize(measureOps(ctx, bad, ops, 10))
	if out.Correct || out.Failed != 1 || out.Attempted != 2 {
		t.Fatalf("corrupted run: %+v", out)
	}
}

// TestReenactmentMatchesLibrary: the traced re-enactment of the flow gives
// the library's answers, records every layer and covers the op.
func TestReenactmentMatchesLibrary(t *testing.T) {
	ctx := context.Background()
	e, err := setupFlow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ops := []op{{Flow: &flowOp{Kernel: "blowfish", Opt: "O3", Machine: 1, Algos: []flow.Algorithm{flow.MI, flow.SI}, Seed: 2}}}
	path := filepath.Join(t.TempDir(), "trace.json")
	out, err := tracedRun(ctx, e, ops, 10, path)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("traced run: %+v", out)
	}
	for _, name := range []string{"core.explore_ms", "baseline.explore_ms", "merging.merge_ms", "replace.apply_cold_ms",
		"match.find_calls", "vm.profile_ms", "dfg.build_ms", "sched.calls", "selection.select_us"} {
		if out.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.Metrics[name].Value)
		}
	}
	if u := out.Metrics["trace.unaccounted_pct"].Value; u < 0 || u > 5 {
		t.Errorf("trace.unaccounted_pct = %v", u)
	}
	var ct struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &ct); err != nil || len(ct.TraceEvents) == 0 {
		t.Fatalf("chrome trace: %v, %d events", err, len(ct.TraceEvents))
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 24)
	for i := range xs {
		xs[i] = float64(24 - i)
	}
	v, q := tailPercentile(xs)
	if v != 14 || q != 100*14.0/24 {
		t.Fatalf("tail of 1..24 = %v at p%v, want 14 at p58.3", v, q)
	}
}

// TestIQRMatchesPython pins iqr to statistics.quantiles(range(1, 11), n=4),
// which is [2.75, 5.5, 8.25].
func TestIQRMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqr(xs), (8.25-2.75)/5.5; got != want {
		t.Fatalf("iqr = %v, want %v", got, want)
	}
}

func TestModeFlags(t *testing.T) {
	steady := runRecord{opMS: []float64{200, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300, 310}}
	if f := modeFlags([]runRecord{steady}); len(f) != 0 {
		t.Errorf("unimodal ops flagged: %v", f)
	}
	split := runRecord{opMS: []float64{10, 11, 12, 13, 14, 15, 60, 65, 70, 75, 80, 90}}
	f := modeFlags([]runRecord{split})
	if len(f) != 2 || !strings.Contains(f[0], "under 100 ms") || !strings.Contains(f[1], "op_p50_ms at a gap") {
		t.Errorf("bimodal short ops: flags %v", f)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and
// workloads.json in step with what the program prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	out := summarize([]sample{{ms: 100}})
	out.Metrics["setup_s"] = metric{1, "s"}
	if len(spec.EndToEnd) != len(out.Metrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(out.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerMetrics) && (layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %+v", i, m.Name, m.Unit, layerMetrics[i])
		}
	}

	var notes map[string]json.RawMessage
	b, err = os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &notes); err != nil {
		t.Fatal(err)
	}
	for _, n := range workloadNames() {
		if _, ok := notes[n]; !ok {
			t.Errorf("workloads.json has no entry for %s", n)
		}
	}
}
