package baseline

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
)

func hotBenchDFG(t testing.TB, name, opt string) *dfg.DFG {
	t.Helper()
	bm, err := bench.Get(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
}

// steadyIterate returns a closure running one baseline iteration on the
// crc32/O3 hot block — option selection, serial evaluation, trail update,
// merit update, convergence check — after warming the explorer's arenas:
// iteration groups vary in size and count, so several iterations are needed
// before every buffer reaches steady-state capacity. The fixed RNG seed
// makes the warmup deterministic.
func steadyIterate(tb testing.TB) func() {
	d := hotBenchDFG(tb, "crc32", "O3")
	e := &explorer{}
	e.reset(d, machine.New(2, 4, 2), core.DefaultParams(), aco.NewRand(1))
	e.tab.Seed(e.d, e.p.Coefs())
	tetOld := 1 << 30
	iterate := func() {
		chosen := e.selectOptions()
		tet := e.serialCycles(chosen)
		improved := tet <= tetOld
		e.trailUpdate(chosen, improved)
		if improved {
			tetOld = tet
		}
		e.meritUpdate(chosen)
		e.convergedNow()
	}
	for i := 0; i < 50; i++ {
		iterate()
	}
	return iterate
}

// TestBaselineSteadyStateAllocs pins the zero-allocation contract of the
// baseline's convergence hot loop, mirroring core's
// TestExploreSteadyStateAllocs (DESIGN.md §13): once a worker's explorer has
// warmed its arenas on a DFG, a full iteration allocates nothing. Runs under
// -race via `make race`.
func TestBaselineSteadyStateAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, steadyIterate(t)); allocs != 0 {
		t.Fatalf("steady-state baseline iteration allocates %v/op, want 0", allocs)
	}
}

// BenchmarkBaselineIter measures one steady-state SI iteration, the
// baseline's per-layer cost: 0 allocs/op.
func BenchmarkBaselineIter(b *testing.B) {
	iterate := steadyIterate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate()
	}
}

// TestBaselineSharedScratchDeterminism pins the scratch-pooling contract:
// explorations drawing worker scratch from a shared pool — including scratch
// warmed on a *different* DFG — return byte-identical results to fresh
// explorations, at every worker count. This is the cross-block reuse path
// flow.BuildPool drives.
func TestBaselineSharedScratchDeterminism(t *testing.T) {
	d1 := hotBenchDFG(t, "crc32", "O3")
	d2 := hotBenchDFG(t, "bitcount", "O3")
	cfg := machine.New(2, 4, 2)
	p := core.FastParams()
	p.Restarts = 3

	want1, err := ExploreSharedCtx(t.Context(), d1, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := ExploreSharedCtx(t.Context(), d2, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		pw := p
		pw.Workers = workers
		scr := NewScratch()
		// Interleave the two DFGs twice so reused scratch has always been
		// warmed on the other DFG at least once.
		for round := 0; round < 2; round++ {
			got1, err := ExploreSharedCtx(t.Context(), d1, cfg, pw, scr)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := ExploreSharedCtx(t.Context(), d2, cfg, pw, scr)
			if err != nil {
				t.Fatal(err)
			}
			for i, pair := range []struct{ got, want *core.Result }{{got1, want1}, {got2, want2}} {
				if pair.got.FinalCycles != pair.want.FinalCycles ||
					pair.got.BaseCycles != pair.want.BaseCycles ||
					pair.got.AreaUM2() != pair.want.AreaUM2() ||
					len(pair.got.ISEs) != len(pair.want.ISEs) {
					t.Fatalf("workers=%d round=%d dfg=%d: shared-scratch result differs: %d->%d area %v (%d ISEs) vs %d->%d area %v (%d ISEs)",
						workers, round, i+1,
						pair.got.BaseCycles, pair.got.FinalCycles, pair.got.AreaUM2(), len(pair.got.ISEs),
						pair.want.BaseCycles, pair.want.FinalCycles, pair.want.AreaUM2(), len(pair.want.ISEs))
				}
				for j := range pair.got.ISEs {
					if !pair.got.ISEs[j].Nodes.Equal(pair.want.ISEs[j].Nodes) {
						t.Fatalf("workers=%d round=%d dfg=%d: ISE %d membership differs", workers, round, i+1, j)
					}
				}
			}
		}
	}
}
