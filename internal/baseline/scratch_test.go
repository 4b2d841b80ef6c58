package baseline

import (
	"testing"

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
