package match

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/prog"
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
// on the mappings, their order, the states visited, which it returns, and
// whether the budget ran out.
func compareOne(t *testing.T, name string, pd *dfg.DFG, pat graph.NodeSet, td *dfg.DFG, maxMatches, limit int) int {
	t.Helper()
	got, gotStates, gotTrunc := find(pd, pat, td, maxMatches, limit)
	want, wantStates, wantTrunc := findReference(pd, pat, td, maxMatches, limit)
	if !reflect.DeepEqual(got, want) || gotStates != wantStates || gotTrunc != wantTrunc {
		t.Fatalf("%s pattern %v max %d budget %d:\n got %d mappings in %d states (truncated %v) %v\nwant %d mappings in %d states (truncated %v) %v",
			name, pat, maxMatches, limit, len(got), gotStates, gotTrunc, got, len(want), wantStates, wantTrunc, want)
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

// TestFindMatchesMostConstrainedOrder checks the level order against the
// one it replaced: on connected patterns sampled from the paper kernels'
// hot blocks and from internal/randprog DFGs, matched in their own block and
// in another, the most-constrained-first reference searcher with no budget
// must find the same mappings, as a set, as a Find that is not truncated.
// Find must be truncated on none of them.
func TestFindMatchesMostConstrainedOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds := append([]*dfg.DFG(nil), kernelDFGs()...)
	for i := 0; i < 20; i++ {
		ds = append(ds, randprog.DFG(r, randprog.Config{Ops: 10 + r.Intn(40), MemFrac: 0.1, MultFrac: 0.05}))
	}
	keys := func(ms []Mapping) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = mappingKey(m)
		}
		slices.Sort(out)
		return out
	}
	states, oldStates, nonEmpty := 0, 0, 0
	for i, pd := range ds {
		for k := 0; k < 4; k++ {
			td := pd
			if k%2 == 1 {
				td = ds[(i+1+r.Intn(len(ds)-1))%len(ds)]
			}
			pat := sampleConnected(r, pd, 2+r.Intn(10))
			got, n, truncated := find(pd, pat, td, 0, DefaultLimit)
			if truncated {
				t.Fatalf("%s pattern %v in %s: a connected pattern's search ran out of budget", pd.Name, pat, td.Name)
			}
			want, m, _ := findMostConstrained(pd, pat, td, 0, math.MaxInt)
			if !slices.Equal(keys(got), keys(want)) {
				t.Fatalf("%s pattern %v in %s: find gave %v, the most-constrained order %v",
					pd.Name, pat, td.Name, keys(got), keys(want))
			}
			states += n
			oldStates += m
			if len(got) > 0 {
				nonEmpty++
			}
		}
	}
	t.Logf("%d cases, %d with mappings: %d search states, %d under the most-constrained order", 4*len(ds), nonEmpty, states, oldStates)
	if nonEmpty < 40 {
		t.Fatalf("only %d cases have mappings; the test no longer compares mapping sets", nonEmpty)
	}
}

// FuzzFind builds a random DFG (and, when cross is set, a second one as the
// target) from the fuzz input, draws a pattern from it (a connected sample,
// or when subset is set an arbitrary, usually disconnected, subset whose
// levels may have no anchor) and compares find against the reference under
// the given match cap and budget.
func FuzzFind(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint16(65535), false, false)
	f.Add(int64(2), uint8(40), uint8(6), uint8(1), uint16(100), true, false)
	f.Add(int64(3), uint8(30), uint8(3), uint8(64), uint16(7), false, false)
	f.Add(int64(4), uint8(12), uint8(1), uint8(0), uint16(2), true, false)
	f.Add(int64(5), uint8(45), uint8(8), uint8(5), uint16(3000), false, false)
	f.Add(int64(6), uint8(30), uint8(4), uint8(0), uint16(65535), false, true)
	f.Add(int64(7), uint8(40), uint8(6), uint8(3), uint16(500), true, true)
	f.Fuzz(func(t *testing.T, seed int64, ops, size, maxMatches uint8, budget uint16, cross, subset bool) {
		r := rand.New(rand.NewSource(seed))
		cfg := randprog.Config{Ops: 1 + int(ops)%48, MemFrac: 0.1, MultFrac: 0.05}
		pd := randprog.DFG(r, cfg)
		td := pd
		if cross {
			td = randprog.DFG(r, cfg)
		}
		pat := sampleConnected(r, pd, 1+int(size)%8)
		if subset {
			pat = randomSubset(r, pd, 1+int(size)%8)
		}
		compareOne(t, "fuzz", pd, pat, td, int(maxMatches), 1+int(budget))
	})
}

// TestEachStopsLikeFind checks the streaming search: a yield that stops
// after k mappings must see exactly the first k mappings of find(..., k,
// limit) and the reference, after visiting exactly as many states, under
// every diffBudgets limit. FindChecked must return Find's list.
func TestEachStopsLikeFind(t *testing.T) {
	ds := kernelDFGs()
	r := rand.New(rand.NewSource(3))
	check := func(name string, pd *dfg.DFG, pat graph.NodeSet, td *dfg.DFG) {
		t.Helper()
		for _, k := range []int{1, 2, 3, 64} {
			for _, limit := range diffBudgets {
				var got []Mapping
				states, _ := each(pd, pat, td, nil, limit, func(m Mapping) bool {
					got = append(got, m)
					return len(got) < k
				})
				want, wantStates, _ := find(pd, pat, td, k, limit)
				ref, refStates, _ := findReference(pd, pat, td, k, limit)
				if !reflect.DeepEqual(got, want) || states != wantStates || !reflect.DeepEqual(got, ref) || states != refStates {
					t.Fatalf("%s pattern %v stop %d budget %d: each gave %d mappings in %d states, find %d in %d, reference %d in %d",
						name, pat, k, limit, len(got), states, len(want), wantStates, len(ref), refStates)
				}
			}
			got, _ := FindChecked(pd, pat, td, k)
			if want := Find(pd, pat, td, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pattern %v stop %d: FindChecked gave %v, Find %v", name, pat, k, got, want)
			}
		}
	}
	for i, pd := range ds {
		td := ds[(i+1)%len(ds)]
		check(pd.Name+" self", pd, sampleConnected(r, pd, 1+r.Intn(6)), pd)
		check(pd.Name+" in "+td.Name, pd, sampleConnected(r, pd, 1+r.Intn(6)), td)
		if pd.Len() >= 30 {
			check(pd.Name+" subset self", pd, randomSubset(r, pd, 4), pd)
		}
	}
}

// TestFindUnsortedAdjacency matches on a hand-built DFG whose adjacency
// lists were inserted in descending ID order: node 4's predecessors are
// [3 1] and node 0's successors [5 2]. The anchored levels draw their
// candidates from exactly those lists, so a searcher that visits neighbours
// in list order rather than ascending ID order returns the mappings in the
// wrong order.
func TestFindUnsortedAdjacency(t *testing.T) {
	ops := []isa.Opcode{isa.OpSUB, isa.OpADD, isa.OpOR, isa.OpADD, isa.OpXOR, isa.OpOR}
	g := graph.New(len(ops))
	d := &dfg.DFG{Name: "unsorted", G: g, Data: g}
	for v, op := range ops {
		d.Nodes = append(d.Nodes, &dfg.Node{ID: v, Instr: prog.Instr{Op: op}, HW: []isa.HWOption{{Name: "hw"}}})
	}
	g.AddEdge(3, 4)
	g.AddEdge(1, 4)
	g.AddEdge(0, 5)
	g.AddEdge(0, 2)
	if !reflect.DeepEqual(g.Preds(4), []int{3, 1}) || !reflect.DeepEqual(g.Succs(0), []int{5, 2}) {
		t.Fatalf("fixture lists are not descending: preds(4) %v, succs(0) %v", g.Preds(4), g.Succs(0))
	}
	for _, c := range []struct {
		pat  []int
		want []Mapping
	}{
		// xor binds first (one candidate); add is anchored through the
		// predecessors of xor's target.
		{[]int{1, 4}, []Mapping{{1: 1, 4: 4}, {1: 3, 4: 4}}},
		// sub binds first; or is anchored through the successors of sub's
		// target.
		{[]int{0, 2}, []Mapping{{0: 0, 2: 2}, {0: 0, 2: 5}}},
	} {
		pat := graph.NodeSetOf(d.Len(), c.pat...)
		if got := Find(d, pat, d, 0); !reflect.DeepEqual(got, c.want) {
			t.Errorf("pattern %v: got %v, want %v", c.pat, got, c.want)
		}
		checkAgainstReference(t, "unsorted", d, pat, d)
	}
}

// mappingKey renders a mapping with its pattern nodes in ascending order,
// so mapping lists can be compared as sets.
func mappingKey(m Mapping) string {
	ps := make([]int, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	slices.Sort(ps)
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%d>%d ", p, m[p])
	}
	return b.String()
}

// checkRestricted runs pat over td restricted to within and checks it
// against the unrestricted search. When the unrestricted search completes
// within DefaultLimit, the restricted one must too, and yield exactly its
// mappings whose targets all lie in within. Under every diffBudgets limit
// the restricted search must report completeness exactly when the limit
// covers the states its complete run took, and then yield the same list. It
// reports whether the case was compared (the unrestricted search completed)
// and how many mappings the restricted search found.
func checkRestricted(t *testing.T, name string, pd *dfg.DFG, pat graph.NodeSet, td *dfg.DFG, within graph.NodeSet) (compared bool, found int) {
	t.Helper()
	collect := func(w *graph.NodeSet, limit int) ([]Mapping, int, bool) {
		var ms []Mapping
		states, complete := each(pd, pat, td, w, limit, func(m Mapping) bool {
			ms = append(ms, m)
			return true
		})
		return ms, states, complete
	}
	whole, _, wholeComplete := collect(nil, DefaultLimit)
	got, states, complete := collect(&within, DefaultLimit)
	if !wholeComplete {
		return false, 0
	}
	var want []string
	for _, m := range whole {
		if m.Targets(td.Len()).SubsetOf(within) {
			want = append(want, mappingKey(m))
		}
	}
	var gotKeys []string
	for _, m := range got {
		gotKeys = append(gotKeys, mappingKey(m))
	}
	slices.Sort(want)
	slices.Sort(gotKeys)
	if !complete || !slices.Equal(gotKeys, want) {
		t.Fatalf("%s pattern %v within %v: restricted search (complete %v) found %v, the filtered whole-block search %v",
			name, pat, within, complete, gotKeys, want)
	}
	for _, limit := range diffBudgets {
		ms, _, ok := collect(&within, limit)
		if ok != (limit >= states) {
			t.Fatalf("%s pattern %v within %v budget %d: complete = %v after a complete run of %d states",
				name, pat, within, limit, ok, states)
		}
		if ok && !reflect.DeepEqual(ms, got) {
			t.Fatalf("%s pattern %v within %v budget %d: complete run found %v, want %v", name, pat, within, limit, ms, got)
		}
	}
	return true, len(got)
}

// TestFindEachInMatchesFilteredFind compares the target-restricted search
// with the unrestricted one filtered to the target set, on patterns sampled
// from the paper kernels' hot blocks and from internal/randprog DFGs. The
// target sets are connected samples of the target grown around a random
// node, as SubgraphOf restricts to a candidate's nodes, and random subsets.
func TestFindEachInMatchesFilteredFind(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var ds []*dfg.DFG
	ds = append(ds, kernelDFGs()...)
	for i := 0; i < 40; i++ {
		ds = append(ds, randprog.DFG(r, randprog.Config{Ops: 10 + r.Intn(40), MemFrac: 0.1, MultFrac: 0.05}))
	}
	compared, nonEmpty := 0, 0
	for i, pd := range ds {
		for k := 0; k < 4; k++ {
			td := pd
			if k%2 == 1 {
				td = ds[(i+1+r.Intn(len(ds)-1))%len(ds)]
			}
			pat := sampleConnected(r, pd, 1+r.Intn(6))
			within := sampleConnected(r, td, 4+r.Intn(12))
			if k >= 2 {
				within = randomSubset(r, td, td.Len()/2+1)
			}
			ok, found := checkRestricted(t, fmt.Sprintf("%s in %s", pd.Name, td.Name), pd, pat, td, within)
			if ok {
				compared++
			}
			if found > 0 {
				nonEmpty++
			}
			// A restricted search over the pattern's own nodes in its own
			// block finds at least the identity mapping.
			if ok, found = checkRestricted(t, pd.Name+" own nodes", pd, pat, pd, pat); ok && found == 0 && !pat.Empty() {
				t.Fatalf("%s pattern %v: no mapping onto its own nodes", pd.Name, pat)
			}
		}
	}
	t.Logf("%d cases compared, %d with in-set mappings", compared, nonEmpty)
	if compared < 100 || nonEmpty < 20 {
		t.Fatalf("%d cases compared, %d with in-set mappings; the test no longer covers the restriction", compared, nonEmpty)
	}
}

// TestFindEachCompleteness checks the completeness flag of the search, with
// and without a target set: true after a search that enumerated every
// mapping, false when yield stopped it early or a budget ran out.
func TestFindEachCompleteness(t *testing.T) {
	d := kernelDFGs()[0]
	pat := graph.NewNodeSet(d.Len())
	for v := 0; v < d.Len() && pat.Len() < 2; v++ {
		if d.Nodes[v].ISEEligible() {
			pat.Add(v)
		}
	}
	all := graph.NewNodeSet(d.Len())
	for v := range d.Nodes {
		all.Add(v)
	}
	n := 0
	if !FindEachIn(d, pat, d, all, func(Mapping) bool { n++; return true }) || n < 2 {
		t.Fatalf("full FindEachIn: complete false or only %d mappings", n)
	}
	if FindEachIn(d, pat, d, all, func(Mapping) bool { return false }) {
		t.Fatal("FindEachIn stopped by yield reports complete")
	}
	_, states, _ := find(d, pat, d, 0, DefaultLimit)
	for _, within := range []*graph.NodeSet{nil, &all} {
		if _, complete := each(d, pat, d, within, DefaultLimit, func(Mapping) bool { return false }); complete {
			t.Fatalf("within %v: search stopped by yield reports complete", within)
		}
		for limit := 1; limit < states; limit++ {
			if _, complete := each(d, pat, d, within, limit, func(Mapping) bool { return true }); complete {
				t.Fatalf("within %v: budget %d of the %d states the search needs reports complete", within, limit, states)
			}
		}
		if _, complete := each(d, pat, d, within, states, func(Mapping) bool { return true }); !complete {
			t.Fatalf("within %v: budget of exactly %d states reports incomplete", within, states)
		}
	}
}
