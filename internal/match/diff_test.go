package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/randprog"
)

// kernelDFGs are the hot blocks (up to three each) of the seven paper
// kernels at O3, the DFGs the design flow matches against.
var kernelDFGs = sync.OnceValue(func() []*dfg.DFG {
	var out []*dfg.DFG
	for _, name := range bench.Names() {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			panic(err)
		}
		prof, err := bm.Run()
		if err != nil {
			panic(err)
		}
		out = append(out, dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 3), prof.BlockCounts)...)
	}
	return out
})

// sampleConnected grows a connected pattern of up to size ISE-eligible nodes
// of d from a random eligible node, following dataflow edges in either
// direction. It returns an empty set when d has no eligible node.
func sampleConnected(r *rand.Rand, d *dfg.DFG, size int) graph.NodeSet {
	s := graph.NewNodeSet(d.Len())
	var elig []int
	for v, n := range d.Nodes {
		if n.ISEEligible() {
			elig = append(elig, v)
		}
	}
	if len(elig) == 0 {
		return s
	}
	s.Add(elig[r.Intn(len(elig))])
	for s.Len() < size {
		var frontier []int
		for _, v := range s.Values() {
			for _, nbrs := range [][]int{d.Data.Succs(v), d.Data.Preds(v)} {
				for _, u := range nbrs {
					if d.Nodes[u].ISEEligible() && !s.Contains(u) {
						frontier = append(frontier, u)
					}
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		s.Add(frontier[r.Intn(len(frontier))])
	}
	return s
}

// randomSubset draws up to size ISE-eligible nodes of d uniformly, connected
// or not. Disconnected patterns are the ones whose search blows up.
func randomSubset(r *rand.Rand, d *dfg.DFG, size int) graph.NodeSet {
	s := graph.NewNodeSet(d.Len())
	for _, v := range r.Perm(d.Len()) {
		if s.Len() < size && d.Nodes[v].ISEEligible() {
			s.Add(v)
		}
	}
	return s
}

// diffBudgets are the search budgets every differential case runs under:
// the production limit plus small ones that cut the search mid-tree, so the
// two searchers must also agree on where a truncated search stops.
var diffBudgets = []int{DefaultLimit, 1, 2, 3, 5, 17, 200, 5000}

// checkAgainstReference asserts find and findReference return the same
// mappings in the same order, after visiting the same number of states, for
// every maxMatches and budget. It returns how many DefaultLimit runs used up
// the whole budget.
func checkAgainstReference(t *testing.T, name string, pd *dfg.DFG, pat graph.NodeSet, td *dfg.DFG) (exhausted int) {
	t.Helper()
	for _, maxMatches := range []int{0, 1, 64} {
		for _, limit := range diffBudgets {
			if compareOne(t, name, pd, pat, td, maxMatches, limit) == DefaultLimit {
				exhausted++
			}
		}
	}
	return exhausted
}

// compareOne runs both searchers once and fails the test unless they agree
// on the mappings, their order and the states visited, which it returns.
func compareOne(t *testing.T, name string, pd *dfg.DFG, pat graph.NodeSet, td *dfg.DFG, maxMatches, limit int) int {
	t.Helper()
	got, gotStates := find(pd, pat, td, maxMatches, limit)
	want, wantStates := findReference(pd, pat, td, maxMatches, limit)
	if !reflect.DeepEqual(got, want) || gotStates != wantStates {
		t.Fatalf("%s pattern %v max %d budget %d:\n got %d mappings in %d states %v\nwant %d mappings in %d states %v",
			name, pat, maxMatches, limit, len(got), gotStates, got, len(want), wantStates, want)
	}
	return gotStates
}

// TestFindMatchesReferenceKernels compares find against the reference on
// patterns sampled from the paper kernels' hot blocks, matched against their
// own block and against another kernel's block: connected patterns, as
// exploration produces, and a few arbitrary subsets large enough to exhaust
// DefaultLimit.
func TestFindMatchesReferenceKernels(t *testing.T) {
	ds := kernelDFGs()
	r := rand.New(rand.NewSource(1))
	other := func(i int) *dfg.DFG { return ds[(i+1+r.Intn(len(ds)-1))%len(ds)] }
	for i, pd := range ds {
		for k := 0; k < 4; k++ {
			pat := sampleConnected(r, pd, 1+r.Intn(8))
			checkAgainstReference(t, pd.Name+" self", pd, pat, pd)
			td := other(i)
			checkAgainstReference(t, pd.Name+" in "+td.Name, pd, pat, td)
		}
	}
	exhausted := 0
	for i, pd := range ds {
		if pd.Len() < 30 {
			continue // only the kernels' loop bodies are big enough
		}
		pat := randomSubset(r, pd, 8)
		exhausted += checkAgainstReference(t, pd.Name+" subset self", pd, pat, pd)
		td := other(i)
		exhausted += checkAgainstReference(t, pd.Name+" subset in "+td.Name, pd, pat, td)
	}
	if exhausted == 0 {
		t.Error("no case exhausted DefaultLimit; the differential test no longer covers budget truncation")
	}
}

// TestFindMatchesReferenceRandom compares find against the reference on
// random DFGs from internal/randprog.
func TestFindMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := randprog.Config{Ops: 40, MemFrac: 0.1, MultFrac: 0.05}
	for i := 0; i < 100; i++ {
		pd := randprog.DFG(r, cfg)
		td := pd
		if i%2 == 1 {
			td = randprog.DFG(r, cfg)
		}
		pat := sampleConnected(r, pd, 1+r.Intn(7))
		checkAgainstReference(t, fmt.Sprintf("rand %d", i), pd, pat, td)
	}
}

// FuzzFind builds a random DFG (and, when cross is set, a second one as the
// target) from the fuzz input, samples a connected pattern from it and
// compares find against the reference under the given match cap and
// budget.
func FuzzFind(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint16(65535), false)
	f.Add(int64(2), uint8(40), uint8(6), uint8(1), uint16(100), true)
	f.Add(int64(3), uint8(30), uint8(3), uint8(64), uint16(7), false)
	f.Add(int64(4), uint8(12), uint8(1), uint8(0), uint16(2), true)
	f.Add(int64(5), uint8(45), uint8(8), uint8(5), uint16(3000), false)
	f.Fuzz(func(t *testing.T, seed int64, ops, size, maxMatches uint8, budget uint16, cross bool) {
		r := rand.New(rand.NewSource(seed))
		cfg := randprog.Config{Ops: 1 + int(ops)%48, MemFrac: 0.1, MultFrac: 0.05}
		pd := randprog.DFG(r, cfg)
		td := pd
		if cross {
			td = randprog.DFG(r, cfg)
		}
		pat := sampleConnected(r, pd, 1+int(size)%8)
		compareOne(t, "fuzz", pd, pat, td, int(maxMatches), 1+int(budget))
	})
}
