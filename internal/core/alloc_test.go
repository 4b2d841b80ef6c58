package core

import (
	"runtime"
	"testing"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/sched"
)

// TestExploreSteadyStateAllocs pins the zero-allocation contract of the
// exploration hot loop (DESIGN.md §13): once a worker's explorer has warmed
// its arenas on a DFG, a full ant iteration — the driver's iterate: walk,
// trail update, merit update — allocates nothing. This is the tier-2
// regression gate behind the headline allocs-per-op numbers in README.md;
// it runs under -race via `make race`.
func TestExploreSteadyStateAllocs(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	e := newExplorer(t, d, machine.New(2, 4, 2))
	e.cs.tetOld = 1 << 30
	step := func() { iterate(e) }
	// Warm the arenas: ant walks vary in group count and schedule length, so
	// several iterations are needed before every buffer reaches steady-state
	// capacity. The fixed RNG seed in newExplorer makes the warmup sequence —
	// and therefore the measurement below — deterministic.
	for i := 0; i < 50; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state exploration iteration allocates %v/op, want 0", allocs)
	}
}

// steadySIIterate returns a closure running one SI baseline iteration on
// the crc32/O3 hot block — the driver's iterate (option selection, serial
// evaluation, trail update, merit update) and the convergence check — after
// warming the explorer's arenas: iteration groups vary in size and count, so
// several iterations are needed before every buffer reaches steady-state
// capacity. The fixed RNG seed makes the warmup deterministic.
func steadySIIterate(tb testing.TB) func() {
	d := hotBenchDFG(tb, "crc32", "O3")
	e := &siExplorer{}
	e.reset(d, machine.New(2, 4, 2), DefaultParams(), aco.NewRand(1), nil, nil, nil, nil, 0)
	e.tab.Seed(e.d, e.p.Coefs())
	e.cs.tetOld = 1 << 30
	step := func() {
		iterate(e)
		e.convergedNow()
	}
	for i := 0; i < 50; i++ {
		step()
	}
	return step
}

// TestBaselineSteadyStateAllocs pins the same zero-allocation contract for
// the SI baseline's step: once its explorer has warmed its arenas on a DFG,
// a full iteration allocates nothing. Runs under -race via `make race`.
func TestBaselineSteadyStateAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, steadySIIterate(t)); allocs != 0 {
		t.Fatalf("steady-state baseline iteration allocates %v/op, want 0", allocs)
	}
}

// BenchmarkBaselineIter measures one steady-state SI iteration, the
// baseline's per-layer cost: 0 allocs/op.
func BenchmarkBaselineIter(b *testing.B) {
	step := steadySIIterate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestRoundShapingAllocs pins the allocation contract of a round's end
// (DESIGN.md §13) for both explorers, with no evaluation cache and with one:
// once the shaper, the kernel and the cache are warm, a round that accepts
// nothing — shaping the converged selection into candidates and evaluating
// them — allocates nothing, and a round that accepts allocates exactly what
// materializing the winner's ISE does. Runs under -race via `make race`.
func TestRoundShapingAllocs(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	cfg := machine.New(2, 4, 2)
	for _, cache := range []*EvalCache{nil, NewEvalCache()} {
		mi := &explorer{}
		mi.reset(d, cfg, DefaultParams(), aco.NewRand(1), nil, cache, sched.NewScheduler(), nil, 0)
		mi.bind()
		base, err := cache.ScheduleWith(mi.kern, d, mi.kern.AllSoftware(d.Len()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundAllocs(t, "MI", mi, base)

		si := &siExplorer{}
		si.reset(d, cfg, DefaultParams(), aco.NewRand(1), nil, cache, sched.NewScheduler(), nil, 0)
		si.bind()
		checkRoundAllocs(t, "SI", si, d.Len())
	}
}

// checkRoundAllocs converges one round of st from fresh tables and measures
// its end under the objective cur.
func checkRoundAllocs(t *testing.T, label string, st step, cur int) {
	t.Helper()
	e := st.state()
	e.tab.Seed(e.d, e.p.Coefs())
	e.cs = convergeState{tetOld: 1 << 30}
	converge(t.Context(), st)
	// The first round end warms the shaper, the kernel and the cache.
	i, _ := st.bestCandidate(cur)
	if i < 0 || len(e.sh.cands) < 2 {
		t.Fatalf("%s: the converged round shaped %d candidates and accepted index %d; the gate needs a choice among several", label, len(e.sh.cands), i)
	}
	if n := testing.AllocsPerRun(20, func() { st.bestCandidate(cur) }); n != 0 {
		t.Fatalf("%s: a warm round that accepts nothing allocates %v times, want 0", label, n)
	}
	winner := testing.AllocsPerRun(20, func() { e.sh.materialize(i) })
	accept := testing.AllocsPerRun(20, func() {
		j, _ := st.bestCandidate(cur)
		e.sh.materialize(j)
	})
	if accept != winner {
		t.Fatalf("%s: a warm round that accepts allocates %v times, its winner's ISE %v", label, accept, winner)
	}
}

// evalJob is one schedule-memo lookup: a block and an assignment of it.
type evalJob struct {
	d *dfg.DFG
	a sched.Assignment
}

// evalCacheJobs builds logic chains of 2 to 40 operations and assignments
// that put one eligible node alone in hardware. warm holds each chain's
// all-software assignment and its first node in hardware, rest the other
// 780 single-node assignments, all distinct keys.
func evalCacheJobs(t testing.TB) (warm, rest []evalJob) {
	for k := 2; k <= 40; k++ {
		d := blockDFG(t, func(b *prog.Builder) { logicChain(b, k) })
		warm = append(warm, evalJob{d, sched.AllSoftware(d.Len())})
		for v := 0; v < d.Len(); v++ {
			if !d.Nodes[v].ISEEligible() {
				continue
			}
			a := sched.AllSoftware(d.Len())
			a[v] = sched.NodeChoice{Kind: sched.KindHW, Group: 0}
			if v == 0 {
				warm = append(warm, evalJob{d, a})
			} else {
				rest = append(rest, evalJob{d, a})
			}
		}
	}
	return warm, rest
}

// shardSizes returns the number of keys each of c's shards holds.
func shardSizes(c *EvalCache) (n [evalShards]int) {
	for i := range c.shards {
		n[i] = len(c.shards[i].m)
	}
	return n
}

// mallocs returns how many heap allocations f makes, counted as
// testing.AllocsPerRun counts them but summed, not averaged.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// mapGrowthAllocs returns how many allocations a map[evalKey]int32 makes
// growing from from[i] to to[i] keys, summed over the shards: the growth a
// miss is allowed.
func mapGrowthAllocs(from, to [evalShards]int) uint64 {
	var n uint64
	for i := range from {
		m := make(map[evalKey]int32)
		for k := 0; k < from[i]; k++ {
			m[evalKey{mach: uint32(k)}] = 0
		}
		n += mallocs(func() {
			for k := from[i]; k < to[i]; k++ {
				m[evalKey{mach: uint32(k)}] = 0
			}
		})
	}
	return n
}

// TestEvalCacheSteadyStateAllocs pins that the schedule memo stores lengths
// by value: a hit allocates nothing, and a miss allocates nothing but its
// map's growth. The misses' allocations are counted in total, not averaged,
// and bounded by what plain maps make growing by the same number of keys per
// shard, so that a few misses allocating cannot hide in a per-miss mean that
// rounds down to 0. The kernel is first run on every job outside the cache,
// so its arenas are at their peak size and the measured misses allocate only
// in the cache.
func TestEvalCacheSteadyStateAllocs(t *testing.T) {
	warm, rest := evalCacheJobs(t)
	cfg := machine.New(2, 4, 2)
	kern := sched.NewScheduler()
	for _, j := range append(warm, rest...) {
		if _, err := kern.Schedule(j.d, j.a, cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := NewEvalCache()
	for _, j := range warm {
		if _, err := c.ScheduleWith(kern, j.d, j.a, cfg); err != nil {
			t.Fatal(err)
		}
	}
	_, before := c.Stats()
	from := shardSizes(c)
	missAllocs := mallocs(func() {
		for _, j := range rest {
			if _, err := c.ScheduleWith(kern, j.d, j.a, cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, after := c.Stats(); after-before != uint64(len(rest)) {
		t.Fatalf("%d misses measured, want %d: the keys are not distinct", after-before, len(rest))
	}
	if growth := mapGrowthAllocs(from, shardSizes(c)); missAllocs > growth {
		t.Errorf("%d misses into a warmed cache allocate %d times, want at most the shard maps' growth, %d", len(rest), missAllocs, growth)
	}
	next := 0
	hit := testing.AllocsPerRun(len(rest)-1, func() {
		j := rest[next]
		next++
		if _, err := c.ScheduleWith(kern, j.d, j.a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if hits, _ := c.Stats(); hits != uint64(len(rest)) {
		t.Fatalf("%d hits, want %d", hits, len(rest))
	}
	if hit != 0 {
		t.Errorf("a hit allocates %v times, want 0", hit)
	}
}

// BenchmarkEvalCache measures the schedule memo's two paths over
// evalCacheJobs' keys. Hit looks up a memoized length: the assignment's
// canonical hash, the machine lookup and one map probe. Miss schedules on a
// warm kernel and stores the length, its share of map growth included: the
// cache is replaced, off the clock, once every key has missed.
func BenchmarkEvalCache(b *testing.B) {
	warm, rest := evalCacheJobs(b)
	cfg := machine.New(2, 4, 2)
	kern := sched.NewScheduler()
	run := func(c *EvalCache, j evalJob) {
		if _, err := c.ScheduleWith(kern, j.d, j.a, cfg); err != nil {
			b.Fatal(err)
		}
	}
	fresh := func() *EvalCache {
		c := NewEvalCache()
		for _, j := range warm {
			run(c, j)
		}
		return c
	}
	b.Run("Hit", func(b *testing.B) {
		c := fresh()
		for _, j := range rest {
			run(c, j)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(c, rest[i%len(rest)])
		}
	})
	b.Run("Miss", func(b *testing.B) {
		var c *EvalCache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(rest)
			if k == 0 {
				b.StopTimer()
				c = fresh()
				b.StartTimer()
			}
			run(c, rest[k])
		}
	})
}
