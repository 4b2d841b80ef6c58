package core

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/machine"
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
