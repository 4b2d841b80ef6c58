// Command perfbench is the repository's end-to-end benchmark. It drives the
// paper flow and the iseserve fleet through their public entry points
// (flow.BuildPool + Pool.Evaluate, POST /v1/jobs) in a closed loop with one
// client, checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload flow-match --seed 1 --seconds 30 --trace 0
//
// Workloads (op lists are pure functions of workload and seed):
//
//	flow-match    design points on crc32/O3 and adpcm/O3: match-bound
//	flow-explore  design points on jpeg/O3: exploration-bound
//	fleet-jobs    distributed jobs on an in-process coordinator + 2 workers
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs every op both as
// the library call and as a layer-by-layer re-enactment with spans, prints
// the per-layer metrics and writes the spans as a Chrome trace. --steady K
// runs two interleaved sets of K runs per workload and reports whether they
// agree within the bounds in BENCHMARK.json. perfbench/workloads.json records
// why each workload exists, its op-cost spread and which metrics each layer
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is their
// median and the last one serves the ops.
const setups = 5

func main() {
	var (
		name     = flag.String("workload", "", "workload: flow-match, flow-explore or fleet-jobs")
		seed     = flag.Int64("seed", 1, "workload seed; the op list is a pure function of workload and seed")
		seconds  = flag.Float64("seconds", 30, "measuring time; sizes the op list")
		traced   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace path of a traced run (default .bench_build/perfbench-trace-<workload>-<seed>.json)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the measured ops to this file")
		steady   = flag.Int("steady", 0, "steadiness mode: run two interleaved sets of this many runs per workload")
		only     = flag.String("workloads", "", "steadiness mode: comma-separated workloads (default all)")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*steady, *only, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = fmt.Sprintf(".bench_build/perfbench-trace-%s-%d.json", w.name, *seed)
	}
	out, err := runWorkload(context.Background(), w, *seed, *seconds, *traced == 1, *traceOut, *cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark contract prescribes.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one measured op execution.
type sample struct {
	ms        float64 // wall time
	cpuMS     float64 // process CPU time (user + system)
	allocMB   float64 // bytes allocated
	gcs       uint32  // collections the runtime started by itself
	reduction float64
	err       error
}

// measureOp times one op execution between two quiesced points: a forced
// collection first, so garbage from earlier ops is not charged to it.
func measureOp(ctx context.Context, e env, i int, o op, rec *recorder) (sample, *result) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	r, err := e.run(ctx, i, o, rec)
	t1 := time.Now()
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if rec != nil {
		rec.add("op", i, -1, t0, t1, false)
	}
	s := sample{
		ms:      float64(t1.Sub(t0)) / float64(time.Millisecond),
		cpuMS:   float64(c1-c0) / float64(time.Millisecond),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC),
		err:     err,
	}
	if r != nil {
		s.reduction = r.reduction
	}
	return s, r
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// budget bounds a run's op loop, checks included, so a much slower host
// still finishes within the driver's limit; ops past it are not attempted.
func budget(seconds float64) time.Duration {
	return time.Duration(math.Min(4*seconds, 120) * float64(time.Second))
}

// setUp sets the workload up setups times and returns the last environment
// with the median set-up time.
func setUp(ctx context.Context, w *workload) (env, float64, error) {
	var times []float64
	var e env
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(ctx); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

func runWorkload(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, traceOut, cpuProf string) (*output, error) {
	ops := w.opList(seed, w.opCount(seconds))
	fmt.Printf("workload %s seed %d: %d ops, op list %s\n", w.name, seed, len(ops), opListHash(ops))
	if traced {
		// Every traced op runs twice: trace the first half of the list.
		ops = ops[:(len(ops)+1)/2]
	}

	e, setupS, err := setUp(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	if traced {
		return tracedRun(ctx, e, ops, seconds, traceOut)
	}

	out := summarize(measureOps(ctx, e, ops, seconds))
	out.Metrics["setup_s"] = metric{setupS, "s"}
	return out, nil
}

// measureOps times every op of the list, then checks its answers outside
// the timed span. An op that errors or fails a check counts as failed.
func measureOps(ctx context.Context, e env, ops []op, seconds float64) []sample {
	start := time.Now()
	var samples []sample
	for i, o := range ops {
		if time.Since(start) > budget(seconds) {
			fmt.Printf("budget exhausted after %d of %d ops\n", i, len(ops))
			break
		}
		s, r := measureOp(ctx, e, i, o, nil)
		if s.err == nil {
			s.err = e.check(ctx, i, o, r, nil)
		}
		if s.err != nil {
			fmt.Printf("op %d (%s) failed: %v\n", i, o, s.err)
		}
		samples = append(samples, s)
	}
	return samples
}

// summarize turns the measured ops into the end-to-end metrics.
func summarize(samples []sample) *output {
	out := &output{Attempted: len(samples), Metrics: map[string]metric{}}
	var ms, reds []float64
	total, alloc, red := 0.0, 0.0, 0.0
	for _, s := range samples {
		ms = append(ms, s.ms)
		total += s.ms
		alloc += s.allocMB
		if s.err != nil {
			out.Failed++
			continue
		}
		reds = append(reds, s.reduction)
	}
	out.Correct = out.Failed == 0 && len(samples) > 0
	n := float64(len(samples))
	// Sum in sorted order: ops run in a seed-dealt order, and the mean must
	// come out bit-identical whatever that order.
	sort.Float64s(reds)
	for _, r := range reds {
		red += r
	}
	if len(reds) > 0 {
		red /= float64(len(reds))
	}
	tail, q := tailPercentile(ms)
	fmt.Printf("op_tail_ms is p%.1f of %d ops; op_fail_pct %.1f\n", q, len(ms), 100*float64(out.Failed)/math.Max(n, 1))
	durs, _ := json.Marshal(ms)
	fmt.Printf("op_ms %s\n", durs)
	out.Metrics["ops_per_s"] = metric{1000 * n / total, "1/s"}
	out.Metrics["op_p50_ms"] = metric{median(ms), "ms"}
	out.Metrics["op_tail_ms"] = metric{tail, "ms"}
	out.Metrics["alloc_mb_per_op"] = metric{alloc / n, "MB"}
	out.Metrics["sim_reduction_pct"] = metric{red, "%"}
	out.Metrics["op_ok_pct"] = metric{100 * (n - float64(out.Failed)) / n, "%"}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile returns the highest nearest-rank percentile with at least
// ten ops above it, and that percentile. With fewer than eleven ops it is
// the minimum.
func tailPercentile(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := len(s) - 10 // 1-based rank with ten ops beyond it
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], 100 * float64(rank) / float64(len(s))
}
