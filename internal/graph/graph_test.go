package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond builds the graph 0 -> {1,2} -> 3.
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g
}

// chain builds 0 -> 1 -> ... -> n-1.
func chain(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestAddEdgeDuplicateIgnored(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if got := g.Succs(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Succs(0) = %v, want [1]", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		u, v int
	}{
		{"self", 1, 1},
		{"negative", -1, 0},
		{"out of range", 0, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge(%d,%d) did not panic", c.u, c.v)
				}
			}()
			g := New(3)
			g.AddEdge(c.u, c.v)
		})
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := chain(5)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("TopoOrder = %v, want %v", order, want)
	}
}

func TestTopoOrderDeterministicTieBreak(t *testing.T) {
	// 2 -> 0 and 2 -> 1; nodes 3,4 isolated. Smallest-ID tie-break gives a
	// unique answer.
	g := New(5)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 1, 3, 4}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("TopoOrder = %v, want %v", order, want)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("TopoOrder on cyclic graph returned no error")
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic reported true for a cycle")
	}
}

func TestRootsLeaves(t *testing.T) {
	g := diamond()
	if got := g.Roots(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Roots = %v, want [0]", got)
	}
	if got := g.Leaves(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Leaves = %v, want [3]", got)
	}
}

func TestReachability(t *testing.T) {
	g := diamond()
	from0 := g.ReachableFrom(0)
	for _, v := range []int{1, 2, 3} {
		if !from0.Contains(v) {
			t.Errorf("ReachableFrom(0) missing %d", v)
		}
	}
	if from0.Contains(0) {
		t.Error("ReachableFrom(0) contains the start node")
	}
	to3 := g.ReachingTo(3)
	for _, v := range []int{0, 1, 2} {
		if !to3.Contains(v) {
			t.Errorf("ReachingTo(3) missing %d", v)
		}
	}
	if !g.HasPath(0, 3) {
		t.Error("HasPath(0,3) = false")
	}
	if g.HasPath(3, 0) {
		t.Error("HasPath(3,0) = true")
	}
	if g.HasPath(1, 2) {
		t.Error("HasPath(1,2) = true for parallel branches")
	}
}

func TestIsConvex(t *testing.T) {
	g := diamond()
	cases := []struct {
		name string
		ids  []int
		want bool
	}{
		{"whole graph", []int{0, 1, 2, 3}, true},
		{"single node", []int{1}, true},
		{"two independent middles", []int{1, 2}, true},
		{"endpoints with middles outside", []int{0, 3}, false},
		{"one middle plus endpoints", []int{0, 1, 3}, false},
		{"empty", nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NodeSetOf(g.Len(), c.ids...)
			if got := g.IsConvex(s); got != c.want {
				t.Fatalf("IsConvex(%v) = %v, want %v", c.ids, got, c.want)
			}
			viol := g.ConvexViolators(s)
			if (len(viol) == 0) != c.want {
				t.Fatalf("ConvexViolators(%v) = %v, inconsistent with convexity %v", c.ids, viol, c.want)
			}
		})
	}
}

func TestConvexViolatorsIdentifiesMiddle(t *testing.T) {
	g := chain(3)
	s := NodeSetOf(3, 0, 2)
	viol := g.ConvexViolators(s)
	if !reflect.DeepEqual(viol, []int{1}) {
		t.Fatalf("ConvexViolators({0,2}) = %v, want [1]", viol)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := diamond()
	// {1,2} are not connected to each other inside the subset (their only
	// connections run through 0 and 3, which are outside).
	comps := g.ConnectedComponents(NodeSetOf(4, 1, 2))
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	// {0,1,3} is a single weak component.
	comps = g.ConnectedComponents(NodeSetOf(4, 0, 1, 3))
	if len(comps) != 1 || comps[0].Len() != 3 {
		t.Fatalf("got %v, want one 3-node component", comps)
	}
}

func TestLongestPath(t *testing.T) {
	g := diamond()
	w := []float64{1, 2, 5, 1}
	dist := g.LongestPath(w)
	want := []float64{1, 3, 6, 7}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("LongestPath = %v, want %v", dist, want)
	}
}

func TestLongestPathPanicsOnCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.succs[1] = append(g.succs[1], 0) // force a cycle bypassing AddEdge checks
	g.preds[0] = append(g.preds[0], 1)
	defer func() {
		if recover() == nil {
			t.Fatal("LongestPath on cycle did not panic")
		}
	}()
	g.LongestPath([]float64{1, 1})
}

func randomDAG(r *rand.Rand, n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(3) == 0 {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestTopoOrderPropertyRandomDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		g := randomDAG(r, n)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(u) {
				if pos[u] >= pos[v] {
					t.Fatalf("trial %d: edge (%d,%d) violates topo order", trial, u, v)
				}
			}
		}
	}
}

func TestConvexityPropertyRandomSubsets(t *testing.T) {
	// IsConvex must agree with a brute-force path check on random DAGs.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(10)
		g := randomDAG(r, n)
		s := NewNodeSet(n)
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				s.Add(v)
			}
		}
		want := bruteConvex(g, s)
		if got := g.IsConvex(s); got != want {
			t.Fatalf("trial %d: IsConvex(%v) = %v, brute force = %v", trial, s, got, want)
		}
	}
}

// bruteConvex checks convexity by enumerating all simple paths between
// members of s and verifying no interior node is outside s.
func bruteConvex(g *Graph, s NodeSet) bool {
	for _, u := range s.Values() {
		for _, mid := range g.Succs(u) {
			if s.Contains(mid) {
				continue
			}
			// Can this outside node reach back into s?
			seen := NewNodeSet(g.Len())
			stack := []int{mid}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen.Contains(v) {
					continue
				}
				seen.Add(v)
				for _, w := range g.Succs(v) {
					if s.Contains(w) {
						return false
					}
					stack = append(stack, w)
				}
			}
		}
	}
	return true
}

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(100)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(64) // second word
	s.Add(3)  // duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(3) || !s.Contains(64) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	s.Remove(3)
	s.Remove(3) // double remove must not corrupt count
	if s.Len() != 1 || s.Contains(3) {
		t.Fatalf("after Remove: Len=%d Contains(3)=%v", s.Len(), s.Contains(3))
	}
	if s.Contains(-1) || s.Contains(1000) {
		t.Fatal("Contains out-of-range returned true")
	}
}

func TestNodeSetAlgebra(t *testing.T) {
	a := NodeSetOf(10, 1, 2, 3)
	b := NodeSetOf(10, 3, 4)
	if got := a.Union(b).Values(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Values(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Subtract(b).Values(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Subtract = %v", got)
	}
	if !NodeSetOf(10, 1, 2).SubsetOf(a) {
		t.Error("SubsetOf = false, want true")
	}
	if a.SubsetOf(b) {
		t.Error("SubsetOf = true, want false")
	}
	if !a.Equal(NodeSetOf(10, 3, 2, 1)) {
		t.Error("Equal = false for same membership")
	}
	if a.Equal(b) {
		t.Error("Equal = true for different membership")
	}
}

func TestNodeSetString(t *testing.T) {
	s := NodeSetOf(10, 5, 1)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
}

func TestNodeSetCloneIndependent(t *testing.T) {
	a := NodeSetOf(10, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("Clone shares storage")
	}
}

func TestNodeSetQuickUnionCommutative(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewNodeSet(256), NewNodeSet(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSetQuickUnionWith: the in-place OR has Union's members and count.
func TestNodeSetQuickUnionWith(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewNodeSet(256), NewNodeSet(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		want := a.Union(b)
		a.UnionWith(b)
		return a.Equal(want) && a.Len() == len(want.Values())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSetQuickSubtractDisjoint(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewNodeSet(256), NewNodeSet(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return a.Subtract(b).Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSetQuickNextWalksValues: walking a set with Next visits exactly
// Values, in order, from any start, and allocates nothing.
func TestNodeSetQuickNextWalksValues(t *testing.T) {
	f := func(xs []uint8, capacity uint8, from int8) bool {
		s := NewNodeSet(int(capacity) + 1)
		for _, x := range xs {
			if int(x) <= int(capacity) {
				s.Add(int(x))
			}
		}
		var got []int
		for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
			got = append(got, v)
		}
		if !reflect.DeepEqual(got, s.Values()) && (len(got) > 0 || s.Len() > 0) {
			return false
		}
		want := -1
		for _, v := range s.Values() {
			if v >= int(from) {
				want = v
				break
			}
		}
		return s.Next(int(from)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	s := NodeSetOf(200, 3, 64, 65, 199)
	if n := testing.AllocsPerRun(100, func() {
		for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		}
	}); n != 0 {
		t.Fatalf("Next walk allocates %v times", n)
	}
	if s.Next(200) != -1 || s.Next(1000) != -1 || NewNodeSet(0).Next(0) != -1 {
		t.Fatal("Next past the capacity must report no member")
	}
}
