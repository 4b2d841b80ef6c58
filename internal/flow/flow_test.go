package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/selection"
)

func testPool(t *testing.T, name, opt string, algo Algorithm) *Pool {
	t.Helper()
	bm, err := bench.Get(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := core.FastParams()
	pool, err := BuildPool(bm, Options{
		Machine:   machine.New(2, 4, 2),
		Params:    p,
		Algorithm: algo,
		HotBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestFlowEndToEndCRC(t *testing.T) {
	pool := testPool(t, "crc32", "O0", MI)
	if pool.BaseCycles <= 0 {
		t.Fatal("no baseline cycles")
	}
	if len(pool.Hot) == 0 {
		t.Fatal("no hot blocks")
	}
	rep, err := pool.Evaluate(selection.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalCycles > rep.BaseCycles {
		t.Fatalf("customization made things worse: %v -> %v", rep.BaseCycles, rep.FinalCycles)
	}
	if rep.NumISEs == 0 {
		t.Fatal("no ISEs selected on crc32")
	}
	if rep.Reduction() <= 0 {
		t.Fatalf("no reduction on crc32: %v", rep.Reduction())
	}
	if rep.AreaUM2 <= 0 {
		t.Fatal("zero area with selected ISEs")
	}
}

func TestFlowConstraintsMonotone(t *testing.T) {
	pool := testPool(t, "bitcount", "O3", MI)
	unlimited, err := pool.Evaluate(selection.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := pool.Evaluate(selection.Constraints{MaxISEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.NumISEs > 1 {
		t.Fatalf("MaxISEs=1 selected %d", one.NumISEs)
	}
	if one.FinalCycles < unlimited.FinalCycles {
		t.Errorf("1 ISE (%v) beats unlimited (%v)", one.FinalCycles, unlimited.FinalCycles)
	}
	small, err := pool.Evaluate(selection.Constraints{MaxAreaUM2: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if small.AreaUM2 > 2000 {
		t.Fatalf("area cap violated: %v", small.AreaUM2)
	}
	if small.FinalCycles < unlimited.FinalCycles {
		t.Errorf("tiny area (%v cycles) beats unlimited (%v)", small.FinalCycles, unlimited.FinalCycles)
	}
	// Zero area budget so small nothing fits: no ISEs, base cycles.
	none, err := pool.Evaluate(selection.Constraints{MaxAreaUM2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if none.NumISEs != 0 || none.FinalCycles != none.BaseCycles {
		t.Errorf("1 µm² budget still selected %d ISEs (%v vs %v cycles)",
			none.NumISEs, none.FinalCycles, none.BaseCycles)
	}
}

func TestFlowSIAlgorithm(t *testing.T) {
	pool := testPool(t, "crc32", "O0", SI)
	rep, err := pool.Evaluate(selection.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != SI {
		t.Errorf("algorithm tag = %v", rep.Algorithm)
	}
	if rep.FinalCycles > rep.BaseCycles {
		t.Errorf("SI made program slower: %v -> %v", rep.BaseCycles, rep.FinalCycles)
	}
}

// TestFlowSIEvaluatesCyclicDesignPoint: on rijndael/O3, 2-issue 4/2, seed
// 3, replacement placed ISE instances that were pairwise free of mutual
// dependence but closed a cycle through three of them, and the block failed
// to schedule. Every selection must now evaluate.
func TestFlowSIEvaluatesCyclicDesignPoint(t *testing.T) {
	bm, err := bench.Get("rijndael", "O3")
	if err != nil {
		t.Fatal(err)
	}
	p := core.FastParams()
	p.Seed = 3
	pool, err := BuildPool(bm, Options{Machine: machine.New(2, 4, 2), Params: p, Algorithm: SI, HotBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 8; n++ {
		rep, err := pool.Evaluate(selection.Constraints{MaxISEs: n})
		if err != nil {
			t.Fatalf("MaxISEs %d: %v", n, err)
		}
		if rep.FinalCycles > rep.BaseCycles {
			t.Fatalf("MaxISEs %d: SI made program slower: %v -> %v", n, rep.BaseCycles, rep.FinalCycles)
		}
	}
}

func TestFlowUnknownAlgorithm(t *testing.T) {
	bm, err := bench.Get("crc32", "O0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = BuildPool(bm, Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: "??"})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunWrapper(t *testing.T) {
	bm, err := bench.Get("dijkstra", "O0")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(bm, Options{Machine: machine.New(3, 6, 3), Params: core.FastParams(), Algorithm: MI})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "dijkstra" || rep.OptLevel != "O0" {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.BaseCycles <= 0 || rep.FinalCycles <= 0 {
		t.Errorf("degenerate cycles: %+v", rep)
	}
}

func TestMultiPoolCoDesign(t *testing.T) {
	// One ISE set for crc32+sha: the exploration of either may serve both
	// (both kernels share shift/xor chains).
	var benches []*bench.Benchmark
	for _, name := range []string{"crc32", "sha"} {
		bm, err := bench.Get(name, "O0")
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, bm)
	}
	mp, err := BuildMultiPool(benches, Options{
		Machine:   machine.New(2, 4, 2),
		Params:    core.FastParams(),
		Algorithm: MI,
		HotBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mp.Evaluate(selection.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerApp) != 2 {
		t.Fatalf("per-app reports = %d", len(rep.PerApp))
	}
	if rep.FinalCycles > rep.BaseCycles {
		t.Fatalf("co-design made the suite slower: %v -> %v", rep.BaseCycles, rep.FinalCycles)
	}
	if rep.Reduction() <= 0 {
		t.Fatalf("no suite-wide reduction: %v", rep.Reduction())
	}
	// Suite totals must equal the per-app sums.
	var base, final float64
	for _, app := range rep.PerApp {
		base += app.BaseCycles
		final += app.FinalCycles
	}
	if base != rep.BaseCycles || final != rep.FinalCycles {
		t.Fatalf("totals inconsistent: %v/%v vs %v/%v", base, final, rep.BaseCycles, rep.FinalCycles)
	}
	// Constrained co-design respects the budget.
	tight, err := mp.Evaluate(selection.Constraints{MaxAreaUM2: 4000, MaxISEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.AreaUM2 > 4000 || tight.NumISEs > 1 {
		t.Fatalf("constraints violated: %+v", tight)
	}
}

func TestBuildMultiPoolEmpty(t *testing.T) {
	if _, err := BuildMultiPool(nil, Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: MI}); err == nil {
		t.Fatal("empty suite accepted")
	}
}

// TestBuildPoolDeterministicUnderParallelism: per-block explorations run
// concurrently, but the pool must be byte-identical across runs.
func TestBuildPoolDeterministicUnderParallelism(t *testing.T) {
	bm, err := bench.Get("blowfish", "O3")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: MI, HotBlocks: 3}
	a, err := BuildPool(bm, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPool(bm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("groups differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if len(ga.Members) != len(gb.Members) || ga.AreaUM2 != gb.AreaUM2 {
			t.Fatalf("group %d differs", i)
		}
		for j := range ga.Members {
			if !ga.Members[j].ISE.Nodes.Equal(gb.Members[j].ISE.Nodes) ||
				ga.Members[j].Gain != gb.Members[j].Gain {
				t.Fatalf("group %d member %d differs", i, j)
			}
		}
	}
}

// poolsEqual compares the constraint-independent outcome of two pools.
func poolsEqual(t *testing.T, a, b *Pool) {
	t.Helper()
	if a.BaseCycles != b.BaseCycles {
		t.Fatalf("base cycles differ: %v vs %v", a.BaseCycles, b.BaseCycles)
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("groups differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if len(ga.Members) != len(gb.Members) || ga.AreaUM2 != gb.AreaUM2 {
			t.Fatalf("group %d differs", i)
		}
		for j := range ga.Members {
			if !ga.Members[j].ISE.Nodes.Equal(gb.Members[j].ISE.Nodes) ||
				ga.Members[j].Gain != gb.Members[j].Gain {
				t.Fatalf("group %d member %d differs", i, j)
			}
		}
	}
}

// TestBuildPoolWorkerCountInvariance: the bounded worker pool must not
// change the pool — one worker, many workers, and the uncached measurement
// switch all land on identical groups and gains.
func TestBuildPoolWorkerCountInvariance(t *testing.T) {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: MI, HotBlocks: 3}
	opts.Params.Workers = 1
	seq, err := BuildPool(bm, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 0 is one worker per block and restart; GOMAXPROCS+1 oversubscribes
	// the CPUs.
	var par *Pool
	for _, w := range []int{0, 8, runtime.GOMAXPROCS(0) + 1} {
		opts.Params.Workers = w
		par, err = BuildPool(bm, opts)
		if err != nil {
			t.Fatal(err)
		}
		poolsEqual(t, seq, par)
	}
	if seq.CacheHits == 0 || par.CacheHits == 0 {
		t.Fatalf("pools report no cache hits: %d / %d", seq.CacheHits, par.CacheHits)
	}
	opts.Params.NoEvalCache = true
	raw, err := BuildPool(bm, opts)
	if err != nil {
		t.Fatal(err)
	}
	poolsEqual(t, seq, raw)
	if raw.CacheHits != 0 || raw.CacheMisses != 0 {
		t.Fatalf("NoEvalCache pool reported cache traffic %d/%d", raw.CacheHits, raw.CacheMisses)
	}
}

// TestPoolParallelSweepRace drives the constraint-dependent stages from many
// goroutines at once — the experiments harness sweeps constraints over a
// shared pool — including the lazily-filled blockBase path. Run under
// `go test -race` this is the regression test for the unsynchronized
// baseLen map write.
func TestPoolParallelSweepRace(t *testing.T) {
	pool := testPool(t, "crc32", "O0", MI)
	// Forget some cached base lengths so concurrent sweeps exercise the
	// lazy refill, not just the read path.
	pool.mu.Lock()
	n := 0
	for bi := range pool.baseLen {
		if n%2 == 0 {
			delete(pool.baseLen, bi)
		}
		n++
	}
	pool.mu.Unlock()

	constraints := []selection.Constraints{
		{}, {MaxISEs: 1}, {MaxISEs: 2}, {MaxAreaUM2: 2000}, {MaxAreaUM2: 40000},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, c := range constraints {
				rep, err := pool.Evaluate(c)
				if err != nil {
					t.Errorf("worker %d evaluate %d: %v", w, i, err)
					return
				}
				if rep.FinalCycles > rep.BaseCycles {
					t.Errorf("worker %d: worse than base", w)
				}
				for _, d := range pool.DFGs {
					base, err := pool.blockBase(d)
					if err != nil {
						t.Errorf("worker %d blockBase: %v", w, err)
						return
					}
					if base <= 0 {
						t.Errorf("worker %d: block %s base %d", w, d.Name, base)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCanceledContextPropagates pins the ctxflow fixes: every Ctx entry
// point must observe an already-canceled context and fail with its error
// instead of running the uncancellable legacy path (RunCtx used to build the
// pool cancellably and then evaluate it with no context at all).
func TestCanceledContextPropagates(t *testing.T) {
	bm, err := bench.Get("crc32", "O0")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Machine:   machine.New(2, 4, 2),
		Params:    core.FastParams(),
		Algorithm: MI,
		HotBlocks: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := RunCtx(ctx, bm, opts); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx on canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := BuildMultiPoolCtx(ctx, []*bench.Benchmark{bm}, opts); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("BuildMultiPoolCtx on canceled ctx = %v, want context.Canceled", err)
	}

	pool := testPool(t, "crc32", "O0", MI)
	if _, err := pool.EvaluateCtx(ctx, selection.Constraints{}); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Pool.EvaluateCtx on canceled ctx = %v, want context.Canceled", err)
	}
	mp, err := BuildMultiPool([]*bench.Benchmark{bm}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.EvaluateCtx(ctx, selection.Constraints{}); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("MultiPool.EvaluateCtx on canceled ctx = %v, want context.Canceled", err)
	}

	// The ctx-less wrappers must keep working: same pool, nil error.
	if _, err := pool.Evaluate(selection.Constraints{}); err != nil {
		t.Errorf("Evaluate after ctx fixes: %v", err)
	}
}

// TestBuildPoolCrossBlockReuseDeterminism pins the cross-block arena-reuse
// contract (DESIGN.md §13): pool builds draw worker scratch — kernels and
// explorer arenas — from process-wide pools warmed by earlier builds and
// other blocks, and that reuse must never leak into results. Both
// algorithms, workers ∈ {1, 4, 8}, two builds each (the second is guaranteed
// to reuse scratch the first warmed) all land on identical pools.
func TestBuildPoolCrossBlockReuseDeterminism(t *testing.T) {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{MI, SI} {
		opts := Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: alg, HotBlocks: 3}
		opts.Params.Workers = 1
		want, err := BuildPool(bm, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			opts.Params.Workers = workers
			for round := 0; round < 2; round++ {
				got, err := BuildPool(bm, opts)
				if err != nil {
					t.Fatalf("%s workers=%d round=%d: %v", alg, workers, round, err)
				}
				poolsEqual(t, want, got)
			}
		}
	}
}

// reportsEqual compares the constraint-dependent outcome of two reports
// from separately built pools: cycles, area, and the selected candidates by
// source block, nodes and gain.
func reportsEqual(t *testing.T, what string, a, b *Report) {
	t.Helper()
	if a.BaseCycles != b.BaseCycles || a.FinalCycles != b.FinalCycles || a.AreaUM2 != b.AreaUM2 {
		t.Fatalf("%s: cycles/area %v/%v/%v vs %v/%v/%v", what,
			a.BaseCycles, a.FinalCycles, a.AreaUM2, b.BaseCycles, b.FinalCycles, b.AreaUM2)
	}
	if len(a.Selected) != len(b.Selected) {
		t.Fatalf("%s: %d vs %d selected", what, len(a.Selected), len(b.Selected))
	}
	for i, ca := range a.Selected {
		cb := b.Selected[i]
		if ca.DFG.BlockIndex != cb.DFG.BlockIndex || !ca.ISE.Nodes.Equal(cb.ISE.Nodes) || ca.Gain != cb.Gain {
			t.Fatalf("%s: selected candidate %d differs", what, i)
		}
	}
}

// workerCounts are the Params.Workers values the invariance tests compare:
// sequential, one per CPU, and more workers than CPUs.
func workerCounts() []int { return []int{1, 0, runtime.GOMAXPROCS(0) + 1} }

var evalPoints = []selection.Constraints{{}, {MaxISEs: 1}, {MaxAreaUM2: 20000}}

// TestEvaluateWorkerCountInvariance: the pool build fans its explorations
// out over Params.Workers goroutines, and the reports of its evaluations
// must not depend on it. rijndael/O3 SI at seed 3 has a block whose first
// deploy does not schedule, so Apply's second deploy pass reads the
// occurrence memo too.
func TestEvaluateWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		bench string
		algo  Algorithm
		seed  int64
	}{{"crc32", MI, 1}, {"crc32", SI, 1}, {"rijndael", SI, 3}} {
		bm, err := bench.Get(tc.bench, "O3")
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: tc.algo, HotBlocks: 3}
		opts.Params.Seed = tc.seed
		var want []*Report
		for _, w := range workerCounts() {
			opts.Params.Workers = w
			pool, err := BuildPool(bm, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k, c := range evalPoints {
				rep, err := pool.Evaluate(c)
				if err != nil {
					t.Fatal(err)
				}
				if w == 1 {
					want = append(want, rep)
					continue
				}
				reportsEqual(t, fmt.Sprintf("%s %s workers=%d point %d", tc.bench, tc.algo, w, k), want[k], rep)
			}
		}
	}
}

// TestMultiPoolEvaluateWorkerCountInvariance is the suite-wide form: the
// suite and per-application reports of a multi-pool, whose pool builds fan
// out their explorations, must not depend on the worker count.
func TestMultiPoolEvaluateWorkerCountInvariance(t *testing.T) {
	var benches []*bench.Benchmark
	for _, name := range []string{"crc32", "adpcm"} {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, bm)
	}
	suite := func(r *MultiReport) *Report {
		return &Report{BaseCycles: r.BaseCycles, FinalCycles: r.FinalCycles, AreaUM2: r.AreaUM2, Selected: r.Selected}
	}
	for _, algo := range []Algorithm{MI, SI} {
		opts := Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: algo, HotBlocks: 3}
		var want []*MultiReport
		for _, w := range workerCounts() {
			opts.Params.Workers = w
			mp, err := BuildMultiPool(benches, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k, c := range evalPoints {
				rep, err := mp.Evaluate(c)
				if err != nil {
					t.Fatal(err)
				}
				if w == 1 {
					want = append(want, rep)
					continue
				}
				what := fmt.Sprintf("%s workers=%d point %d", algo, w, k)
				reportsEqual(t, what, suite(want[k]), suite(rep))
				if len(rep.PerApp) != len(want[k].PerApp) {
					t.Fatalf("%s: %d vs %d apps", what, len(rep.PerApp), len(want[k].PerApp))
				}
				for i, app := range rep.PerApp {
					reportsEqual(t, fmt.Sprintf("%s app %d", what, i), want[k].PerApp[i], app)
				}
			}
		}
	}
}
