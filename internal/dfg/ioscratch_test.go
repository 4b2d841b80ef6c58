package dfg_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/randprog"
)

// TestIOScratchMatchesInOut pins the era-marked counters both explorers use
// to the map-based dfg.In/dfg.Out over every bench kernel's hot blocks and a
// corpus of random blocks. One IOScratch serves every DFG in turn, big and
// small interleaved, so rebinding and stale marks from earlier DFGs and
// earlier queries are exercised too.
func TestIOScratchMatchesInOut(t *testing.T) {
	var dfgs []*dfg.DFG
	for _, bm := range bench.All() {
		prof, err := bm.Run()
		if err != nil {
			t.Fatal(err)
		}
		dfgs = append(dfgs, dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 3), prof.BlockCounts)...)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		dfgs = append(dfgs, randprog.DFG(r, randprog.Config{Ops: 4 + r.Intn(60), MemFrac: 0.2, MultFrac: 0.1}))
	}

	var sc dfg.IOScratch
	check := func(d *dfg.DFG, s graph.NodeSet) {
		t.Helper()
		if got, want := d.InScratch(s, &sc), d.In(s); got != want {
			t.Fatalf("%s: InScratch(%v) = %d, In = %d", d.Name, s.Values(), got, want)
		}
	}
	for round := 0; round < 2; round++ {
		for _, d := range dfgs {
			n := d.Len()
			all := graph.NewNodeSet(n)
			for v := 0; v < n; v++ {
				all.Add(v)
				check(d, graph.NodeSetOf(n, v))
			}
			check(d, all)
			check(d, graph.NewNodeSet(n))
			for k := 0; k < 50; k++ {
				s := graph.NewNodeSet(n)
				density := []float64{0.05, 0.2, 0.5, 0.9}[k%4]
				for v := 0; v < n; v++ {
					if r.Float64() < density {
						s.Add(v)
					}
				}
				check(d, s)
			}
		}
	}
}
