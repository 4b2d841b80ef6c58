package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/machine"
)

// hotBenchDFG returns the hottest basic block of a real benchmark.
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

// sameResult asserts that two exploration results are identical in every
// determinism-covered field: ISEs (membership, options, metrics), final
// assignment, and cycle/work counts. Cache counters are explicitly outside
// the contract.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.BaseCycles != b.BaseCycles || a.FinalCycles != b.FinalCycles {
		t.Fatalf("%s: cycles differ: %d->%d vs %d->%d",
			label, a.BaseCycles, a.FinalCycles, b.BaseCycles, b.FinalCycles)
	}
	if a.AreaUM2() != b.AreaUM2() {
		t.Fatalf("%s: area differs: %v vs %v", label, a.AreaUM2(), b.AreaUM2())
	}
	if a.Rounds != b.Rounds || a.Iterations != b.Iterations {
		t.Fatalf("%s: work counters differ: %d/%d vs %d/%d",
			label, a.Rounds, a.Iterations, b.Rounds, b.Iterations)
	}
	if len(a.ISEs) != len(b.ISEs) {
		t.Fatalf("%s: %d vs %d ISEs", label, len(a.ISEs), len(b.ISEs))
	}
	for i := range a.ISEs {
		x, y := a.ISEs[i], b.ISEs[i]
		if !x.Nodes.Equal(y.Nodes) {
			t.Fatalf("%s: ISE %d nodes %v vs %v", label, i, x.Nodes, y.Nodes)
		}
		if !reflect.DeepEqual(x.Option, y.Option) {
			t.Fatalf("%s: ISE %d options %v vs %v", label, i, x.Option, y.Option)
		}
		if x.Cycles != y.Cycles || x.AreaUM2 != y.AreaUM2 || x.SavingCycles != y.SavingCycles {
			t.Fatalf("%s: ISE %d metrics differ", label, i)
		}
	}
	if !reflect.DeepEqual(a.Assignment, b.Assignment) {
		t.Fatalf("%s: assignments differ", label)
	}
}

// TestExploreParallelDeterminism is the contract behind Params.Workers: for
// multiple seeds and real benchmark blocks, exploration with Restarts > 1
// returns an identical Result whether the restart pool runs with one worker
// or many, and whether the schedule-evaluation cache is on or off.
func TestExploreParallelDeterminism(t *testing.T) {
	cfg := machine.New(2, 4, 2)
	for _, bm := range []struct{ name, opt string }{
		{"crc32", "O3"},
		{"bitcount", "O3"},
	} {
		d := hotBenchDFG(t, bm.name, bm.opt)
		for _, seed := range []int64{1, 7, 42} {
			p := FastParams()
			p.Restarts = 3
			p.Seed = seed

			p.Workers = 1
			seq, err := Explore(t.Context(), d, cfg, p)
			if err != nil {
				t.Fatal(err)
			}

			label := bm.name + "/" + bm.opt
			// 0 is one worker per restart; GOMAXPROCS+1 oversubscribes the
			// CPUs.
			for _, w := range []int{0, 4, 8, runtime.GOMAXPROCS(0) + 1} {
				p.Workers = w
				par, err := Explore(t.Context(), d, cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s workers=%d vs sequential", label, w), seq, par)
			}

			p.Workers = 8
			p.NoEvalCache = true
			raw, err := Explore(t.Context(), d, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label+" cached-vs-uncached", seq, raw)
			if raw.CacheHits != 0 || raw.CacheMisses != 0 {
				t.Fatalf("%s: NoEvalCache run reported cache traffic %d/%d",
					label, raw.CacheHits, raw.CacheMisses)
			}
			if seq.CacheHits == 0 {
				t.Fatalf("%s: cached run reported no hits", label)
			}
		}
	}
}

// TestExploreSharedCacheAcrossCalls checks that a caller-supplied cache is
// reused across explorations (the flow's exploration → pricing reuse) and
// does not perturb results.
func TestExploreSharedCacheAcrossCalls(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 2

	solo, err := Explore(t.Context(), d, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewEvalCache()
	first, _, err := ExploreResumable(t.Context(), d, cfg, p, ResumeOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "private-vs-shared cache", solo, first)
	h1, _ := cache.Stats()
	second, _, err := ExploreResumable(t.Context(), d, cfg, p, ResumeOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "first-vs-second shared run", first, second)
	h2, m2 := cache.Stats()
	if h2 <= h1 {
		t.Fatalf("second run hit nothing: hits %d -> %d", h1, h2)
	}
	if m2 != first.CacheMisses {
		t.Fatalf("second run missed: misses %d -> %d", first.CacheMisses, m2)
	}
}
