package core

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/machine"
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
