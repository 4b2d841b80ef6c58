package dfg_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
)

func TestBuildAllOnBenchmarks(t *testing.T) {
	// Every benchmark's hottest blocks must yield valid acyclic DFGs whose
	// structure is internally consistent.
	for _, bm := range bench.All() {
		prof, err := bm.Run()
		if err != nil {
			t.Fatal(err)
		}
		hot := prof.HotBlocks(bm.Prog, 3)
		dfgs := dfg.BuildAll(bm.Prog, hot, prof.BlockCounts)
		if len(dfgs) != len(hot) {
			t.Fatalf("%s: built %d DFGs for %d blocks", bm.FullName(), len(dfgs), len(hot))
		}
		for _, d := range dfgs {
			if !d.G.IsAcyclic() {
				t.Errorf("%s %s: cyclic DFG", bm.FullName(), d.Name)
			}
			if d.Weight == 0 {
				t.Errorf("%s %s: zero weight", bm.FullName(), d.Name)
			}
			if d.CriticalPathLen() < 1 || d.CriticalPathLen() > d.Len() {
				t.Errorf("%s %s: CP length %d out of range", bm.FullName(), d.Name, d.CriticalPathLen())
			}
			// Every data edge must also be a scheduling edge.
			for u := 0; u < d.Data.Len(); u++ {
				for _, v := range d.Data.Succs(u) {
					if !d.G.HasEdge(u, v) {
						t.Errorf("%s %s: data edge (%d,%d) missing from G", bm.FullName(), d.Name, u, v)
					}
				}
			}
		}
	}
}
