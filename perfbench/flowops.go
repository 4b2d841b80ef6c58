package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/match"
	"repro/internal/merging"
	"repro/internal/parallel"
	"repro/internal/replace"
	"repro/internal/sched"
	"repro/internal/selection"
	"repro/internal/timing"
	"repro/internal/vm"
)

// hotBlocks is the flow's default basic-block selection (flow.Options).
const hotBlocks = 3

// points are the constraint points of one design point: unconstrained, the
// area caps of Fig 5.2.1 and the ISE counts of Fig 5.2.2.
func points() []selection.Constraints {
	cs := []selection.Constraints{{}}
	for _, a := range experiments.AreaCaps {
		cs = append(cs, selection.Constraints{MaxAreaUM2: a})
	}
	for _, n := range experiments.ISECounts {
		cs = append(cs, selection.Constraints{MaxISEs: n})
	}
	return cs
}

// point is one evaluated constraint point.
type point struct {
	final    float64
	area     float64
	selected []*merging.Candidate
}

// flowAnswer is a design point's answers plus what the checks need.
type flowAnswer struct {
	bm     *bench.Benchmark
	cfg    machine.Config
	dfgs   map[int]*dfg.DFG
	base   float64
	points []point
	cands  []*merging.Candidate
	groups []merging.Group
}

// flowResult folds an op's answers (one per algorithm) into its result: the
// reduction is the mean over every evaluated point.
func flowResult(as []*flowAnswer) *result {
	var b strings.Builder
	red, n := 0.0, 0
	for _, a := range as {
		fmt.Fprintf(&b, "base=%v", a.base)
		for _, p := range a.points {
			fmt.Fprintf(&b, " %v/%v/%d", p.final, p.area, len(p.selected))
			red += (a.base - p.final) / a.base
			n++
		}
		b.WriteString("; ")
	}
	return &result{reduction: 100 * red / float64(n), fingerprint: b.String(), detail: as}
}

// flowEnv runs design points in this process. The scratch pools serve the
// re-enacted pipeline the way flow's process-wide pools serve BuildPool.
type flowEnv struct {
	scratch  *core.Scratch
	bscratch *baseline.Scratch
}

func (flowEnv) close() {}

// flowParams are the exploration parameters of a design point: the
// paper's (core.DefaultParams) for jpeg, whose ops are meant to be
// exploration-bound (with isebench -fast's, merging and replacement would
// be a fifth of them), and isebench -fast's elsewhere.
func flowParams(f *flowOp) core.Params {
	p := core.FastParams()
	if f.Kernel == "jpeg" {
		p = core.DefaultParams()
	}
	p.Seed = f.Seed
	return p
}

// setupFlow readies a flow environment and warms it with one design point
// on each of five kernels no flow workload times, through both the library
// and the re-enacted pipeline, so lazily grown pools are warm before timing.
// sha makes the set-up last most of a second, long enough that one burst of
// host noise does not dominate setup_s.
func setupFlow(ctx context.Context) (env, error) {
	e := &flowEnv{scratch: core.NewScratch(), bscratch: baseline.NewScratch()}
	for _, k := range []string{"fft", "bitcount", "blowfish", "dijkstra", "sha"} {
		warm := op{Flow: &flowOp{Kernel: k, Opt: "O3", Algos: []flow.Algorithm{flow.MI, flow.SI}, Seed: 1}}
		for _, rec := range []*recorder{nil, newRecorder()} {
			if _, err := e.run(ctx, 0, warm, rec); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", warm, err)
			}
		}
	}
	return e, nil
}

func (e *flowEnv) run(ctx context.Context, i int, o op, rec *recorder) (*result, error) {
	f := o.Flow
	bm, err := bench.Get(f.Kernel, f.Opt)
	if err != nil {
		return nil, err
	}
	cfg := machine.Configs()[f.Machine]
	var as []*flowAnswer
	for _, algo := range f.Algos {
		var a *flowAnswer
		if rec == nil {
			a, err = libraryFlow(ctx, bm, cfg, algo, flowParams(f))
		} else {
			a, err = e.reenact(ctx, i, bm, cfg, algo, flowParams(f), rec)
		}
		if err != nil {
			return nil, err
		}
		as = append(as, a)
	}
	return flowResult(as), nil
}

// libraryFlow is the untraced op: flow.BuildPool and Pool.Evaluate exactly
// as isebench uses them.
func libraryFlow(ctx context.Context, bm *bench.Benchmark, cfg machine.Config, algo flow.Algorithm, p core.Params) (*flowAnswer, error) {
	pool, err := flow.BuildPoolCtx(ctx, bm, flow.Options{Machine: cfg, Params: p, Algorithm: algo, HotBlocks: hotBlocks})
	if err != nil {
		return nil, err
	}
	a := &flowAnswer{bm: bm, cfg: cfg, dfgs: pool.DFGs, base: pool.BaseCycles, groups: pool.Groups}
	for _, c := range points() {
		rep, err := pool.EvaluateCtx(ctx, c)
		if err != nil {
			return nil, err
		}
		a.points = append(a.points, point{final: rep.FinalCycles, area: rep.AreaUM2, selected: rep.Selected})
	}
	return a, nil
}

// reenact performs the same design point as libraryFlow by calling each
// layer's public function in the order flow.BuildPool and Pool.Evaluate
// do, recording a span around every call. Its answers must equal the
// library's (checked by the traced run).
func (e *flowEnv) reenact(ctx context.Context, i int, bm *bench.Benchmark, cfg machine.Config, algo flow.Algorithm, p core.Params, rec *recorder) (*flowAnswer, error) {
	build := rec.begin("flow.build_pool", i, -1, false)
	var prof *vm.Profile
	var err error
	rec.do("vm.profile", i, build, func() { prof, err = bm.Run() })
	if err != nil {
		return nil, err
	}
	var executed []int
	for bi, c := range prof.BlockCounts {
		if c > 0 {
			executed = append(executed, bi)
		}
	}
	var ds []*dfg.DFG
	rec.do("dfg.build", i, build, func() { ds = dfg.BuildAll(bm.Prog, executed, prof.BlockCounts) })
	a := &flowAnswer{bm: bm, cfg: cfg, dfgs: make(map[int]*dfg.DFG, len(ds))}
	for _, d := range ds {
		a.dfgs[d.BlockIndex] = d
	}
	hot := prof.HotBlocks(bm.Prog, hotBlocks)
	hotNodes := 0
	for _, bi := range hot {
		hotNodes += a.dfgs[bi].Len()
	}
	rec.count("dfg.hot_nodes", float64(hotNodes))

	kern := sched.NewScheduler()
	calls := 0
	rec.do("sched.base", i, build, func() {
		for _, d := range ds { // BuildAll keeps ascending block order
			var s *sched.Schedule
			if s, err = kern.Schedule(d, sched.AllSoftware(d.Len()), cfg); err != nil {
				return
			}
			calls++
			a.base += float64(s.Length) * float64(d.Weight)
		}
	})
	if err != nil {
		return nil, err
	}

	cache := core.NewEvalCache()
	if algo == flow.MI {
		hd := make([]*dfg.DFG, 0, len(hot))
		for _, bi := range hot {
			hd = append(hd, a.dfgs[bi])
		}
		e.scratch.Prewarm(hd...)
	}
	perBlock := make([][]*merging.Candidate, len(hot))
	errs := make([]error, len(hot))
	priceKerns := make([]*sched.Scheduler, parallel.Degree(p.Workers, len(hot)))
	for w := range priceKerns {
		priceKerns[w] = sched.NewScheduler()
	}
	cerr := parallel.ForEachWorkerCtx(ctx, len(hot), p.Workers, func(w, hi int) {
		d := a.dfgs[hot[hi]]
		var r *core.Result
		var err error
		if algo == flow.MI {
			rec.do("core.explore", i, build, func() {
				r, _, err = core.ExploreResumable(ctx, d, cfg, p, core.ResumeOptions{Cache: cache, Scratch: e.scratch})
			})
		} else {
			rec.do("baseline.explore", i, build, func() {
				r, err = baseline.ExploreSharedCtx(ctx, d, cfg, p, e.bscratch)
			})
		}
		if err != nil {
			errs[hi] = err
			return
		}
		var gains []float64
		rec.do("sched.price", i, build, func() { gains, err = price(d, cfg, r.ISEs, cache, priceKerns[w]) })
		if err != nil {
			errs[hi] = err
			return
		}
		for k, ise := range r.ISEs {
			perBlock[hi] = append(perBlock[hi], &merging.Candidate{ISE: ise, DFG: d, Gain: gains[k] * float64(d.Weight)})
		}
	})
	if cerr != nil {
		return nil, cerr
	}
	for hi := range perBlock {
		if errs[hi] != nil {
			return nil, errs[hi]
		}
		a.cands = append(a.cands, perBlock[hi]...)
		calls += len(perBlock[hi]) + 1 // price schedules the base and each prefix
	}
	hits, misses := cache.Stats()
	rec.count("core.evalcache_hits", float64(hits))
	rec.count("core.evalcache_misses", float64(misses))
	rec.count("sched.calls", float64(calls))
	rec.do("merging.merge", i, build, func() { a.groups = merging.Merge(a.cands) })
	rec.count("merging.groups", float64(len(a.groups)))
	rec.end(build)

	for k, c := range points() {
		name, replaceName := "flow.evaluate_warm", "replace.apply_warm"
		if k == 0 {
			name, replaceName = "flow.evaluate_cold", "replace.apply_cold"
		}
		ev := rec.begin(name, i, -1, false)
		var dec selection.Decision
		rec.do("selection.select", i, ev, func() { dec = selection.Select(a.groups, c) })
		pt := point{area: dec.AreaUM2, selected: dec.Selected}
		for _, bi := range sortedBlocks(a.dfgs) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			d := a.dfgs[bi]
			var s *sched.Schedule
			var inst []replace.Instance
			rec.do(replaceName, i, ev, func() { s, _, inst, err = replace.ApplyWith(kern, d, cfg, dec.Selected) })
			if err != nil {
				return nil, err
			}
			if k == 0 {
				rec.count("replace.instances", float64(len(inst)))
			}
			pt.final += float64(s.Length) * float64(d.Weight)
		}
		rec.end(ev)
		a.points = append(a.points, pt)
	}
	return a, nil
}

// price is the flow's candidate pricing: each ISE's marginal cycle saving
// when the block's ISEs are deployed cumulatively in exploration order,
// through the pool's shared evaluation cache.
func price(d *dfg.DFG, cfg machine.Config, ises []*core.ISE, cache *core.EvalCache, kern *sched.Scheduler) ([]float64, error) {
	prev, err := cache.ScheduleWith(kern, d, sched.AllSoftware(d.Len()), cfg)
	if err != nil {
		return nil, err
	}
	gains := make([]float64, len(ises))
	for k := range ises {
		n, err := cache.ScheduleWith(kern, d, core.BuildAssignment(d, ises[:k+1]), cfg)
		if err != nil {
			return nil, err
		}
		gains[k] = float64(prev - n)
		prev = n
	}
	return gains, nil
}

func sortedBlocks(m map[int]*dfg.DFG) []int {
	idx := make([]int, 0, len(m))
	for bi := range m {
		idx = append(idx, bi)
	}
	sort.Ints(idx)
	return idx
}

// check verifies a design point's answers: every final block schedule
// passes sched.Verify, and executing the program with the scheduled block
// costs (timing.Simulate) gives exactly the reported cycle counts. In a
// traced run it also probes the subgraph matching Merge performed.
func (e *flowEnv) check(ctx context.Context, i int, o op, r *result, rec *recorder) error {
	for _, a := range r.detail.([]*flowAnswer) {
		if err := checkAnswer(a); err != nil {
			return err
		}
		if rec != nil {
			probeMatch(a, rec)
		}
	}
	return nil
}

func checkAnswer(a *flowAnswer) error {
	blocks := sortedBlocks(a.dfgs)
	sw := make([]int, len(a.bm.Prog.Blocks))
	for _, bi := range blocks {
		d := a.dfgs[bi]
		asg := sched.AllSoftware(d.Len())
		s, err := sched.ListSchedule(d, asg, a.cfg)
		if err != nil {
			return err
		}
		if err := sched.Verify(d, asg, a.cfg, s); err != nil {
			return fmt.Errorf("base schedule of %s: %w", d.Name, err)
		}
		sw[bi] = s.Length
	}
	if base, err := simulate(a, sw); err != nil {
		return err
	} else if base != a.base {
		return fmt.Errorf("all-software program executes %v cycles, report says %v", base, a.base)
	}
	// Points that select the same candidates share their schedules, so
	// each selection is verified and executed once and every point is
	// compared with its selection's executed cycles.
	executed := map[string]float64{}
	for k, p := range a.points {
		key := selectionKey(p.selected)
		cycles, ok := executed[key]
		if !ok {
			costs := make([]int, len(a.bm.Prog.Blocks))
			for _, bi := range blocks {
				d := a.dfgs[bi]
				s, asg, _, err := replace.Apply(d, a.cfg, p.selected)
				if err != nil {
					return err
				}
				if err := sched.Verify(d, asg, a.cfg, s); err != nil {
					return fmt.Errorf("point %d, block %s: %w", k, d.Name, err)
				}
				costs[bi] = s.Length
			}
			var err error
			if cycles, err = simulate(a, costs); err != nil {
				return err
			}
			executed[key] = cycles
		}
		if cycles != p.final {
			return fmt.Errorf("point %d: executed %v cycles, report says %v", k, cycles, p.final)
		}
	}
	return nil
}

// simulate executes the program charging each block its scheduled cost.
func simulate(a *flowAnswer, costs []int) (float64, error) {
	got, _, err := timing.Simulate(a.bm.Prog, a.bm.Setup, bench.MemSize, bench.MaxSteps, costs)
	return float64(got), err
}

func selectionKey(sel []*merging.Candidate) string {
	var b strings.Builder
	for _, c := range sel {
		fmt.Fprintf(&b, "%p,", c)
	}
	return b.String()
}

// probeMatch replays the subgraph matching merging.Merge performed: in
// Merge's order, each candidate that has no structurally identical group
// yet is matched against every earlier group's representative that is at
// least as large, until it joins one. It times each match.Find call and
// counts the mappings found. The probe runs outside the op.
func probeMatch(a *flowAnswer, rec *recorder) {
	group := map[*merging.Candidate]int{}
	for gi, g := range a.groups {
		for _, c := range g.Members {
			group[c] = gi
		}
	}
	ordered := append([]*merging.Candidate(nil), a.cands...)
	sort.SliceStable(ordered, func(i, j int) bool {
		x, y := ordered[i], ordered[j]
		if x.ISE.Size() != y.ISE.Size() {
			return x.ISE.Size() > y.ISE.Size()
		}
		if x.ISE.AreaUM2 != y.ISE.AreaUM2 {
			return x.ISE.AreaUM2 > y.ISE.AreaUM2
		}
		return x.Gain > y.Gain
	})
	canon := map[string]bool{}
	var reps []int // group indices in creation order
	var findMS float64
	calls, mappings := 0, 0
	for _, c := range ordered {
		h := match.Canonical(c.DFG, c.ISE.Nodes)
		if canon[h] {
			continue
		}
		joined := false
		for _, gi := range reps {
			rep := a.groups[gi].Members[0]
			if c.ISE.Size() > rep.ISE.Size() {
				continue
			}
			t0 := time.Now()
			ms := match.Find(c.DFG, c.ISE.Nodes, rep.DFG, 0)
			findMS += float64(time.Since(t0)) / float64(time.Millisecond)
			calls++
			mappings += len(ms)
			if group[c] == gi {
				joined = true
				break
			}
		}
		if !joined {
			canon[h] = true
			reps = append(reps, group[c])
		}
	}
	rec.count("match.find_ms", findMS)
	rec.count("match.find_calls", float64(calls))
	rec.count("match.mappings", float64(mappings))
}
