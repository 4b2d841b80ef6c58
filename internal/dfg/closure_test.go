package dfg_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/randprog"
)

// closureCorpus returns every bench kernel's O3 hot blocks and a seeded
// corpus of random blocks, small and large (up to four bitmap words).
func closureCorpus(t *testing.T) []*dfg.DFG {
	t.Helper()
	var dfgs []*dfg.DFG
	for _, bm := range bench.All() {
		if bm.Opt != "O3" {
			continue
		}
		prof, err := bm.Run()
		if err != nil {
			t.Fatal(err)
		}
		dfgs = append(dfgs, dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 3), prof.BlockCounts)...)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		dfgs = append(dfgs, randprog.DFG(r, randprog.Config{Ops: 2 + r.Intn(250), MemFrac: 0.25, MultFrac: 0.1}))
	}
	return dfgs
}

// connectedSubset grows a weakly connected subset of about k nodes of d's
// dependence graph from a random start node.
func connectedSubset(r *rand.Rand, d *dfg.DFG, k int) graph.NodeSet {
	n := d.Len()
	s := graph.NewNodeSet(n)
	frontier := []int{r.Intn(n)}
	s.Add(frontier[0])
	for s.Len() < k && len(frontier) > 0 {
		i := r.Intn(len(frontier))
		v := frontier[i]
		var next []int
		for _, w := range append(append([]int(nil), d.G.Succs(v)...), d.G.Preds(v)...) {
			if !s.Contains(w) {
				next = append(next, w)
			}
		}
		if len(next) == 0 {
			frontier = append(frontier[:i], frontier[i+1:]...)
			continue
		}
		w := next[r.Intn(len(next))]
		s.Add(w)
		frontier = append(frontier, w)
	}
	return s
}

// TestClosureMatchesTraversal pins every closure-backed query of a DFG to
// the traversal it replaces: IsConvex and ConvexViolator to graph.IsConvex
// and graph.ConvexViolators, AncestorsInto to ReachingTo, ReachesFromNode,
// Reaches and Interlocked to ReachableFrom, and Topo/TopoPos to
// G.TopoOrder. Connected subsets are mostly convex with internal paths, so a
// closure that forgot to mask out S's own members fails them; random
// subsets are mostly non-convex, so one that skipped the ancestor rows fails
// those.
func TestClosureMatchesTraversal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	convex, nonConvex := 0, 0
	var above graph.NodeSet // reused across queries and DFGs
	for _, d := range closureCorpus(t) {
		n := d.Len()
		want, err := d.G.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Topo(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Topo() = %v, TopoOrder = %v", d.Name, got, want)
		}
		for i, v := range d.Topo() {
			if d.TopoPos()[v] != i {
				t.Fatalf("%s: TopoPos()[%d] = %d, want %d", d.Name, v, d.TopoPos()[v], i)
			}
		}

		desc := make([]graph.NodeSet, n)
		for v := 0; v < n; v++ {
			desc[v] = d.G.ReachableFrom(v)
			for w := 0; w < n; w++ {
				if got, want := d.ReachesFromNode(v, graph.NodeSetOf(n, w)), desc[v].Contains(w); got != want {
					t.Fatalf("%s: ReachesFromNode(%d, {%d}) = %v, want %v", d.Name, v, w, got, want)
				}
			}
		}
		reaches := func(a, b graph.NodeSet) bool {
			for _, v := range a.Values() {
				if desc[v].Intersects(b) {
					return true
				}
			}
			return false
		}

		check := func(s graph.NodeSet) {
			t.Helper()
			want := d.G.IsConvex(s)
			if got := d.IsConvex(s); got != want {
				t.Fatalf("%s: IsConvex(%v) = %v, graph.IsConvex = %v", d.Name, s, got, want)
			}
			wantV := -1
			if viol := d.G.ConvexViolators(s); len(viol) > 0 {
				wantV = viol[0]
			}
			if got := d.ConvexViolator(s); got != wantV {
				t.Fatalf("%s: ConvexViolator(%v) = %d, ConvexViolators[0] = %d", d.Name, s, got, wantV)
			}
			if want {
				convex++
			} else {
				nonConvex++
				// above keeps the previous answer's bits: AncestorsInto
				// must overwrite them.
				d.AncestorsInto(&above, wantV, s)
				if want := d.G.ReachingTo(wantV).Intersect(s); !above.Equal(want) {
					t.Fatalf("%s: AncestorsInto(%d, %v) = %v, want %v", d.Name, wantV, s, above, want)
				}
			}
		}
		var sets []graph.NodeSet
		for k := 0; k < 40; k++ {
			s := graph.NewNodeSet(n)
			density := []float64{0.05, 0.2, 0.5, 0.9}[k%4]
			for v := 0; v < n; v++ {
				if r.Float64() < density {
					s.Add(v)
				}
			}
			sets = append(sets, s, connectedSubset(r, d, 2+r.Intn(10)))
		}
		for _, s := range sets {
			check(s)
		}
		for i := 0; i+1 < len(sets); i++ {
			a, b := sets[i], sets[i+1]
			if got, want := d.Reaches(a, b), reaches(a, b); got != want {
				t.Fatalf("%s: Reaches(%v, %v) = %v, want %v", d.Name, a, b, got, want)
			}
			if got, want := d.Interlocked(a, b), reaches(a, b) && reaches(b, a); got != want {
				t.Fatalf("%s: Interlocked(%v, %v) = %v, want %v", d.Name, a, b, got, want)
			}
		}
	}
	if convex == 0 || nonConvex == 0 {
		t.Fatalf("corpus exercised %d convex and %d non-convex subsets, want both", convex, nonConvex)
	}
}

// TestClosureRejectsOutOfRangeMembers pins that a NodeSet member id at or
// beyond d.Len() panics, as the traversal does, instead of reading another
// node's closure row or an unused bit.
func TestClosureRejectsOutOfRangeMembers(t *testing.T) {
	d := randprog.DFG(rand.New(rand.NewSource(3)), randprog.Config{Ops: 70, MemFrac: 0.2})
	n := d.Len()
	for _, id := range []int{n, n + 1, n + 64} {
		s := graph.NodeSetOf(n+128, 0, id)
		for name, query := range map[string]func(){
			"graph.IsConvex":  func() { d.G.IsConvex(s) },
			"IsConvex":        func() { d.IsConvex(s) },
			"ConvexViolator":  func() { d.ConvexViolator(s) },
			"ReachesFromNode": func() { d.ReachesFromNode(id, s) },
			"AncestorsInto":   func() { d.AncestorsInto(new(graph.NodeSet), id, s) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with member %d of a %d-node DFG did not panic", name, id, n)
					}
				}()
				query()
			}()
		}
	}
}
