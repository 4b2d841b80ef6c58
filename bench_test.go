// Package repro's top-level benchmarks regenerate every evaluation artifact
// of the paper (one benchmark per table/figure) and measure the ablations
// called out in DESIGN.md §7. Figure benchmarks run on a reduced matrix so
// `go test -bench=.` stays tractable; `cmd/isebench -all` runs the full
// matrix.
package repro

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hwsw"
	"repro/internal/machine"
	"repro/internal/match"
	"repro/internal/merging"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/selection"
	"repro/internal/vm"
)

// benchSuite shares one exploration-pool cache across all figure benchmarks.
var benchSuite = sync.OnceValue(func() *experiments.Suite {
	s := experiments.NewSuite(core.FastParams())
	s.Benchmarks = []string{"crc32", "bitcount", "blowfish"}
	s.Machines = []machine.Config{machine.New(2, 4, 2), machine.New(3, 6, 3)}
	s.HotBlocks = 2
	return s
})

// BenchmarkTable511 regenerates Table 5.1.1 (hardware option settings).
func BenchmarkTable511(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RenderTable511(io.Discard)
	}
}

// BenchmarkFigure16 regenerates Fig. 5.2.1 (reduction vs. area constraint).
func BenchmarkFigure16(b *testing.B) {
	s := benchSuite()
	var last *experiments.AreaSweep
	for i := 0; i < b.N; i++ {
		as, err := s.RunAreaSweep()
		if err != nil {
			b.Fatal(err)
		}
		last = as
	}
	reportAvg(b, avgOfSeries(flatten(last.Reduction)))
}

// BenchmarkFigure17 regenerates Fig. 5.2.2 (reduction vs. number of ISEs).
func BenchmarkFigure17(b *testing.B) {
	s := benchSuite()
	var last *experiments.CountSweep
	for i := 0; i < b.N; i++ {
		cs, err := s.RunCountSweep()
		if err != nil {
			b.Fatal(err)
		}
		last = cs
	}
	reportAvg(b, avgOfSeries(flatten(last.Reduction)))
}

// BenchmarkFigure18 regenerates Fig. 5.2.3 (area cost vs. reduction).
func BenchmarkFigure18(b *testing.B) {
	s := benchSuite()
	var last *experiments.AreaVsTime
	for i := 0; i < b.N; i++ {
		v, err := s.RunAreaVsTime()
		if err != nil {
			b.Fatal(err)
		}
		last = v
	}
	reportAvg(b, avgOfSeries(last.Reduction[flow.MI]))
}

// BenchmarkHeadline regenerates the abstract's two headline numbers.
func BenchmarkHeadline(b *testing.B) {
	s := benchSuite()
	var last *experiments.Headline
	for i := 0; i < b.N; i++ {
		h, err := s.RunHeadline()
		if err != nil {
			b.Fatal(err)
		}
		last = h
	}
	b.ReportMetric(100*last.OneISE.Avg, "oneISE-%")
	b.ReportMetric(100*last.VsSI.Avg, "vsSI-pp")
}

// ablationDFG is the workload the ablation benchmarks explore: the hottest
// block of crc32/O3 (a deep dependence chain with parallel byte handling).
var ablationDFG = sync.OnceValue(func() *dfg.DFG {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		panic(err)
	}
	prof, err := bm.Run()
	if err != nil {
		panic(err)
	}
	hot := prof.HotBlocks(bm.Prog, 1)
	return dfg.BuildAll(bm.Prog, hot, prof.BlockCounts)[0]
})

// runAblation explores the ablation DFG with modified parameters and reports
// the achieved reduction so configurations can be compared from the bench
// output.
func runAblation(b *testing.B, mutate func(*core.Params)) {
	d := ablationDFG()
	cfg := machine.New(2, 4, 2)
	p := core.FastParams()
	mutate(&p)
	var last *core.Result
	for i := 0; i < b.N; i++ {
		r, err := core.Explore(b.Context(), d, cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportAvg(b, last.Reduction())
}

// BenchmarkAblationFull is the reference point: the full algorithm.
func BenchmarkAblationFull(b *testing.B) {
	runAblation(b, func(p *core.Params) {})
}

// BenchmarkAblationGreedy replaces ACO roulette selection with argmax.
func BenchmarkAblationGreedy(b *testing.B) {
	runAblation(b, func(p *core.Params) { p.Greedy = true })
}

// BenchmarkAblationNoCP removes critical-path awareness from the merit
// function — the distinction between this work and the legality-only
// baseline, measured inside one code base.
func BenchmarkAblationNoCP(b *testing.B) {
	runAblation(b, func(p *core.Params) { p.NoCriticalPath = true })
}

// BenchmarkAblationNoMaxAEC disables the Max_AEC slack-aware area saving.
func BenchmarkAblationNoMaxAEC(b *testing.B) {
	runAblation(b, func(p *core.Params) { p.NoMaxAEC = true })
}

// BenchmarkAblationNoResched restricts exploration to a single round,
// removing the re-scheduling between ISE generations (§1.4 consideration 2).
func BenchmarkAblationNoResched(b *testing.B) {
	runAblation(b, func(p *core.Params) { p.MaxRounds = 1 })
}

// BenchmarkVMProfile measures the profiling substrate: one full interpreted
// run of the largest benchmark.
func BenchmarkVMProfile(b *testing.B) {
	bm, err := bench.Get("blowfish", "O3")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := vm.NewMachine(bench.MemSize)
		if err := bm.Setup(m); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(bm.Prog, bench.MaxSteps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListSchedule measures the scheduler on a real 183-operation block
// (jpeg/O3), the largest DFG in the suite.
func BenchmarkListSchedule(b *testing.B) {
	bm, err := bench.Get("jpeg", "O3")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		b.Fatal(err)
	}
	d := dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
	a := sched.AllSoftware(d.Len())
	cfg := machine.New(4, 8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListSchedule(d, a, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedSteadyState measures the reusable kernel on the same
// 183-operation block as BenchmarkListSchedule, alternating between the
// all-software assignment and the explored ISE assignment so both the
// fast path and a real macro contraction are exercised. The contract pinned
// here (and by TestSchedulerSteadyStateAllocs) is zero steady-state heap
// allocations: after warm-up every Schedule call runs out of the arenas.
func BenchmarkSchedSteadyState(b *testing.B) {
	bm, err := bench.Get("jpeg", "O3")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		b.Fatal(err)
	}
	d := dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
	cfg := machine.New(4, 8, 4)
	res, err := core.Explore(b.Context(), d, cfg, core.FastParams())
	if err != nil {
		b.Fatal(err)
	}
	as := []sched.Assignment{sched.AllSoftware(d.Len()), res.Assignment}
	kern := sched.NewScheduler()
	for _, a := range as { // warm-up: grow the arenas once
		if _, err := kern.Schedule(d, a, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kern.Schedule(d, as[i%len(as)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func reportAvg(b *testing.B, reduction float64) {
	b.ReportMetric(100*reduction, "reduction-%")
}

func flatten(m map[string][]float64) []float64 {
	var out []float64
	for _, vs := range m {
		out = append(out, vs...)
	}
	return out
}

func avgOfSeries(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// BenchmarkAblationPriorityMobility explores with the mobility-based
// scheduling priority (paper §6 future work) for comparison with the
// children-count default of BenchmarkAblationFull.
func BenchmarkAblationPriorityMobility(b *testing.B) {
	runAblation(b, func(p *core.Params) { p.Priority = core.PriorityMobility })
}

// BenchmarkAblationPriorityHeight uses the classic list-scheduling height
// priority.
func BenchmarkAblationPriorityHeight(b *testing.B) {
	runAblation(b, func(p *core.Params) { p.Priority = core.PriorityHeight })
}

// BenchmarkMatchFind measures subgraph-isomorphism search: the CRC bit-step
// pattern against the unrolled crc32/O3 block.
func BenchmarkMatchFind(b *testing.B) {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		b.Fatal(err)
	}
	d := dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
	// Pattern: the first five eligible ops (one bit-step).
	pat := graph.NewNodeSet(d.Len())
	for v := 0; v < d.Len() && pat.Len() < 5; v++ {
		if d.Nodes[v].ISEEligible() {
			pat.Add(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := match.Find(d, pat, d, 0); len(ms) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkConvex measures the convexity test both explorers apply to every
// hardware option's virtual subgraph: dfg.IsConvex over seeded connected
// subsets of 2-8 operations of jpeg/O3's three hot blocks. Each DFG's
// closure is built before the timer starts, so the loop measures the warm
// query, which allocates nothing.
func BenchmarkConvex(b *testing.B) {
	bm, err := bench.Get("jpeg", "O3")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		d *dfg.DFG
		s graph.NodeSet
	}
	var qs []query
	r := rand.New(rand.NewSource(1))
	for _, d := range dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 3), prof.BlockCounts) {
		d.IsConvex(graph.NewNodeSet(d.Len())) // build the closure
		for k := 0; k < 64; k++ {
			// Grow a weakly connected subset from a random start node; a
			// component smaller than size stops the growth early.
			s := graph.NodeSetOf(d.Len(), r.Intn(d.Len()))
			size := 2 + r.Intn(7)
			for tries := 0; s.Len() < size && tries < 64; tries++ {
				vs := s.Values()
				v := vs[r.Intn(len(vs))]
				if nbrs := append(append([]int(nil), d.G.Succs(v)...), d.G.Preds(v)...); len(nbrs) > 0 {
					s.Add(nbrs[r.Intn(len(nbrs))])
				}
			}
			qs = append(qs, query{d, s})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	convex := 0
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if q.d.IsConvex(q.s) {
			convex++
		}
	}
	b.ReportMetric(float64(convex)/float64(b.N), "convex-frac")
}

// matchPool is the pool BenchmarkMerge and BenchmarkEvaluate run on:
// crc32/O3 under MI on the 2-issue 4/2 machine, the kernel whose design
// points spend most of their time in subgraph matching.
var matchPool = sync.OnceValue(func() *flow.Pool { return crc32Pool(flow.MI, 1) })

// mergePoolSI is BenchmarkMerge's SI case: crc32/O3 under SI on the same
// machine at seed 2, whose merges are mostly ruled out by SubgraphOf's
// in-ISE pre-search rather than decided by whole-block searches.
var mergePoolSI = sync.OnceValue(func() *flow.Pool { return crc32Pool(flow.SI, 2) })

// crc32Pool builds the crc32/O3 pool on the 2-issue 4/2 machine under algo
// with FastParams at seed.
func crc32Pool(algo flow.Algorithm, seed int64) *flow.Pool {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		panic(err)
	}
	p := core.FastParams()
	p.Seed = seed
	pool, err := flow.BuildPool(bm, flow.Options{Machine: machine.New(2, 4, 2), Params: p, Algorithm: algo, HotBlocks: 3})
	if err != nil {
		panic(err)
	}
	return pool
}

// coldCopy copies a candidate without its memoized matches, so every use of
// the copy matches afresh.
func coldCopy(c *merging.Candidate) *merging.Candidate {
	return &merging.Candidate{ISE: c.ISE, DFG: c.DFG, Gain: c.Gain}
}

// BenchmarkMerge measures the merging stage (canonical hashing plus the
// in-ISE subgraph searches of merging.SubgraphOf) over the candidates of
// two crc32/O3 pools: MI, and SI at seed 2.
func BenchmarkMerge(b *testing.B) {
	for _, c := range []struct {
		name string
		pool func() *flow.Pool
	}{{"MI", matchPool}, {"SI-seed2", mergePoolSI}} {
		b.Run(c.name, func(b *testing.B) {
			var cands []*merging.Candidate
			for _, g := range c.pool().Groups {
				for _, m := range g.Members {
					cands = append(cands, coldCopy(m))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if gs := merging.Merge(cands); len(gs) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkEvaluate measures a cold Pool.Evaluate at the unconstrained
// point on the crc32/O3 pool: selection, replacement with every
// candidate's cross-block matches found afresh, and final scheduling.
func BenchmarkEvaluate(b *testing.B) {
	pool := matchPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cold := &flow.Pool{Benchmark: pool.Benchmark, Machine: pool.Machine, Algorithm: pool.Algorithm,
			DFGs: pool.DFGs, Hot: pool.Hot, BaseCycles: pool.BaseCycles}
		for _, g := range pool.Groups {
			cg := merging.Group{AreaUM2: g.AreaUM2}
			for _, c := range g.Members {
				cg.Members = append(cg.Members, coldCopy(c))
			}
			cold.Groups = append(cold.Groups, cg)
		}
		b.StartTimer()
		if _, err := cold.Evaluate(selection.Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetlistEval measures evaluating the generated ASFU datapath of a
// CRC bit-step ISE.
func BenchmarkNetlistEval(b *testing.B) {
	d := ablationDFG()
	p := core.FastParams()
	res, err := core.Explore(b.Context(), d, machine.New(2, 4, 2), p)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.ISEs) == 0 {
		b.Fatal("no ISE to lower")
	}
	m, err := netlist.FromISE(d, res.ISEs[0], "bench")
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]uint32{}
	for _, p := range m.Inputs {
		inputs[p.Name] = 0xDEADBEEF
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Eval(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHWSWPartition measures the future-work adaptation on a pipeline
// task graph.
func BenchmarkHWSWPartition(b *testing.B) {
	g := hwsw.NewGraph()
	prev := -1
	for i := 0; i < 8; i++ {
		id := g.AddTask(hwsw.Task{Name: "t", SWTime: 20 + i, HWTime: 4 + i, HWArea: 500})
		if prev >= 0 {
			g.AddEdge(prev, id, 3)
		}
		prev = id
	}
	p := hwsw.DefaultParams()
	p.MaxIterations = 40
	p.Restarts = 2
	var last *hwsw.Result
	for i := 0; i < b.N; i++ {
		res, err := hwsw.Partition(g, 2000, p)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Speedup(), "speedup-x")
}

// BenchmarkExploreMI measures one full MI exploration of the crc32/O3 hot
// block with the parallel engine but the eval cache disabled — the headline
// allocs-per-op number for the zero-alloc exploration loop. Disabling the
// cache is what distinguishes it from BenchmarkExploreMIParallelCached:
// with both on default parameters the two benchmarks ran literally
// identical configurations, so the "cached" variant's hit-rate metric
// described a cache that the "uncached" one silently used too.
func BenchmarkExploreMI(b *testing.B) {
	d := ablationDFG()
	cfg := machine.New(2, 4, 2)
	p := core.DefaultParams()
	p.NoEvalCache = true
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(b.Context(), d, cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreMISeedBaseline reproduces the original engine for
// comparison with BenchmarkExploreMIParallelCached: restarts run
// sequentially (Workers=1) and every candidate evaluation re-runs the list
// scheduler (NoEvalCache). The two benchmarks explore identical search
// spaces and return identical results; the delta is pure engine overhead.
func BenchmarkExploreMISeedBaseline(b *testing.B) {
	d := ablationDFG()
	cfg := machine.New(2, 4, 2)
	p := core.DefaultParams()
	p.Workers = 1
	p.NoEvalCache = true
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(b.Context(), d, cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreMIParallelCached measures the parallel, cached exploration
// engine (one worker per restart, schedule-evaluation memo cache)
// and reports the cache hit rate alongside the wall-clock time.
func BenchmarkExploreMIParallelCached(b *testing.B) {
	d := ablationDFG()
	cfg := machine.New(2, 4, 2)
	p := core.DefaultParams()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		r, err := core.Explore(b.Context(), d, cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if lookups := last.CacheHits + last.CacheMisses; lookups > 0 {
		b.ReportMetric(100*float64(last.CacheHits)/float64(lookups), "cache-hit-%")
	}
}

// BenchmarkExploreSI measures the single-issue baseline on the same block.
func BenchmarkExploreSI(b *testing.B) {
	d := ablationDFG()
	cfg := machine.New(2, 4, 2)
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ExploreSharedCtx(b.Context(), d, cfg, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPool measures the explore+price+merge pipeline (the
// benchmark's shared profile and DFGs are built once, on the first build), and
// reports the schedule-evaluation cache hit rate of the last build so the
// cross-block cache behavior is visible in the benchmark output, like
// BenchmarkHeadline's custom metrics.
func BenchmarkBuildPool(b *testing.B) {
	bm, err := bench.Get("bitcount", "O3")
	if err != nil {
		b.Fatal(err)
	}
	opts := flow.Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: flow.MI, HotBlocks: 2}
	var last *flow.Pool
	for i := 0; i < b.N; i++ {
		pool, err := flow.BuildPool(bm, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = pool
	}
	if lookups := last.CacheHits + last.CacheMisses; lookups > 0 {
		b.ReportMetric(100*float64(last.CacheHits)/float64(lookups), "cache-hit-%")
	}
}

// BenchmarkBuildMultiPool measures one suite-wide pool build over crc32/O3
// and adpcm/O3: both explorations and merges, then the re-pricing of every
// candidate in every block of both applications.
func BenchmarkBuildMultiPool(b *testing.B) {
	var benches []*bench.Benchmark
	for _, name := range []string{"crc32", "adpcm"} {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			b.Fatal(err)
		}
		benches = append(benches, bm)
	}
	opts := flow.Options{Machine: machine.New(2, 4, 2), Params: core.FastParams(), Algorithm: flow.MI}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := flow.BuildMultiPool(benches, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignPoint measures one perfbench design point per case: the
// flow-match points crc32/O3 and adpcm/O3 on the 2-issue 4/2 machine under
// core.FastParams, and the flow-explore point jpeg/O3 on the 2-issue 6/3
// machine under core.DefaultParams, all at ACO seed 1: flow.BuildPool and
// Pool.Evaluate at the unconstrained point, the area caps of Fig. 5.2.1 and
// the ISE counts of Fig. 5.2.2, once with MI and once with SI. Its
// allocations per op are the per-design-point garbage; the shared profile
// and DFGs are built before the timer starts.
func BenchmarkDesignPoint(b *testing.B) {
	points := []selection.Constraints{{}}
	for _, a := range experiments.AreaCaps {
		points = append(points, selection.Constraints{MaxAreaUM2: a})
	}
	for _, n := range experiments.ISECounts {
		points = append(points, selection.Constraints{MaxISEs: n})
	}
	fast := core.FastParams()
	fast.Seed = 1
	paper := core.DefaultParams()
	paper.Seed = 1
	for _, c := range []struct {
		name    string
		machine machine.Config
		params  core.Params
	}{
		{"crc32", machine.Configs()[0], fast},
		{"adpcm", machine.Configs()[0], fast},
		{"jpeg", machine.Configs()[1], paper},
	} {
		b.Run(c.name+"-O3", func(b *testing.B) {
			bm, err := bench.Get(c.name, "O3")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bm.DFGs(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
					pool, err := flow.BuildPool(bm, flow.Options{Machine: c.machine, Params: c.params, Algorithm: algo, HotBlocks: 3})
					if err != nil {
						b.Fatal(err)
					}
					for _, pt := range points {
						if _, err := pool.Evaluate(pt); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkAblationTwoASFUs explores with a second ASFU available —
// measuring whether ISE-level parallelism buys anything on this workload.
func BenchmarkAblationTwoASFUs(b *testing.B) {
	d := ablationDFG()
	cfg := machine.New(2, 4, 2).WithASFUs(2)
	p := core.FastParams()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		r, err := core.Explore(b.Context(), d, cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportAvg(b, last.Reduction())
}

// hottestBlock returns a function that builds the hottest O3 block of
// benchmark name on its first call and returns it on every call.
func hottestBlock(name string) func() *dfg.DFG {
	return sync.OnceValue(func() *dfg.DFG {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			panic(err)
		}
		prof, err := bm.Run()
		if err != nil {
			panic(err)
		}
		return dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
	})
}

// restartDFG is the block the per-restart benchmarks explore: the hottest
// block of jpeg/O3 (row_loop, 183 nodes), the block of every perfbench
// flow-explore design point.
var restartDFG = hottestBlock("jpeg")

// adpcmRestartDFG is the hottest block of adpcm/O3 (sample_loop, 111
// nodes), the block every perfbench fleet-jobs job explores.
var adpcmRestartDFG = hottestBlock("adpcm")

// restartParams are the paper's exploration parameters cut to one restart on
// one worker, so a benchmark op is one restart's iterations and nothing
// waits for, or shares a core with, another restart.
func restartParams() core.Params {
	p := core.DefaultParams()
	p.Workers = 1
	p.Restarts = 1
	return p
}

// BenchmarkExploreRestartMI measures one MI restart on restartDFG: the
// per-iteration cost of the explorer (walk, trail and merit updates) times
// its iteration count, free of the restart fan-out's scheduling.
func BenchmarkExploreRestartMI(b *testing.B) {
	d := restartDFG()
	cfg := machine.New(2, 4, 2)
	p := restartParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(b.Context(), d, cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreRestartMIAdpcm is BenchmarkExploreRestartMI on
// adpcmRestartDFG: the exploration half of a fleet-jobs op.
func BenchmarkExploreRestartMIAdpcm(b *testing.B) {
	d := adpcmRestartDFG()
	cfg := machine.New(2, 4, 2)
	p := restartParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(b.Context(), d, cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreRestartSI is BenchmarkExploreRestartMI for the
// single-issue baseline.
func BenchmarkExploreRestartSI(b *testing.B) {
	d := restartDFG()
	cfg := machine.New(2, 4, 2)
	p := restartParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ExploreSharedCtx(b.Context(), d, cfg, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
