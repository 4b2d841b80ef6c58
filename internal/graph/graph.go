// Package graph provides the directed-acyclic-graph kernel used by every
// dataflow-level subsystem of the repository: topological ordering,
// reachability closures, convexity checks for candidate instruction-set
// extensions, and input/output value counting of node subsets.
//
// Nodes are dense integer IDs in [0, N). The graph is append-only: nodes and
// edges can be added but not removed, which matches how dataflow graphs are
// built from basic blocks. Subset-level operations take a NodeSet so that the
// same immutable graph can be queried for many candidate subgraphs.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
)

// Graph is a directed graph over dense integer node IDs.
// The zero value is an empty graph ready to use.
type Graph struct {
	succs [][]int
	preds [][]int
	edges int
}

// New returns a graph pre-sized for n nodes (IDs 0..n-1).
func New(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return g
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.succs) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() int {
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return len(g.succs) - 1
}

// AddEdge inserts the edge u -> v. Duplicate edges are ignored.
// It panics if either endpoint is out of range or u == v.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.Len() || v < 0 || v >= g.Len() {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.Len()))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self edge at node %d", u))
	}
	for _, w := range g.succs[u] {
		if w == v {
			return
		}
	}
	g.succs[u] = append(g.succs[u], v)
	g.preds[v] = append(g.preds[v], u)
	g.edges++
}

// HasEdge reports whether the edge u -> v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.Len() || v < 0 || v >= g.Len() {
		return false
	}
	for _, w := range g.succs[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Succs returns the successors of node u. The returned slice must not be
// modified.
func (g *Graph) Succs(u int) []int { return g.succs[u] }

// Preds returns the predecessors of node u. The returned slice must not be
// modified.
func (g *Graph) Preds(u int) []int { return g.preds[u] }

// InDegree returns the number of predecessors of u.
func (g *Graph) InDegree(u int) int { return len(g.preds[u]) }

// OutDegree returns the number of successors of u.
func (g *Graph) OutDegree(u int) int { return len(g.succs[u]) }

// Roots returns all nodes with no predecessors, in increasing ID order.
func (g *Graph) Roots() []int {
	var r []int
	for v := 0; v < g.Len(); v++ {
		if len(g.preds[v]) == 0 {
			r = append(r, v)
		}
	}
	return r
}

// Leaves returns all nodes with no successors, in increasing ID order.
func (g *Graph) Leaves() []int {
	var r []int
	for v := 0; v < g.Len(); v++ {
		if len(g.succs[v]) == 0 {
			r = append(r, v)
		}
	}
	return r
}

// TopoOrder returns a topological ordering of all nodes, or an error if the
// graph contains a cycle. Ties are broken by smallest node ID so the order is
// deterministic.
func (g *Graph) TopoOrder() ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.preds[v])
	}
	// Min-heap behaviour via sorted ready list keeps the result deterministic.
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range g.succs[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// ReachableFrom returns the set of nodes reachable from u by following
// successor edges, excluding u itself.
func (g *Graph) ReachableFrom(u int) NodeSet {
	out := NewNodeSet(g.Len())
	g.walk(u, g.succs, out)
	return out
}

// ReachingTo returns the set of nodes from which u is reachable, excluding u
// itself.
func (g *Graph) ReachingTo(u int) NodeSet {
	out := NewNodeSet(g.Len())
	g.walk(u, g.preds, out)
	return out
}

func (g *Graph) walk(u int, next [][]int, out NodeSet) {
	stack := append([]int(nil), next[u]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out.Contains(v) {
			continue
		}
		out.Add(v)
		stack = append(stack, next[v]...)
	}
}

// HasPath reports whether v is reachable from u (u != v) via successor edges.
func (g *Graph) HasPath(u, v int) bool {
	if u == v {
		return false
	}
	return g.ReachableFrom(u).Contains(v)
}

// IsConvex reports whether the node subset s is convex: no path from a node
// in s to another node in s passes through a node outside s. Convexity is the
// feasibility condition for atomically issuing a candidate ISE.
func (g *Graph) IsConvex(s NodeSet) bool {
	// A subset is convex iff no node outside s is simultaneously reachable
	// from s and able to reach s. Walk forward from the out-frontier of s,
	// stopping at nodes of s; if we re-enter s, a violating path exists.
	seen := NewNodeSet(g.Len())
	var stack []int
	for w, word := range s.bits {
		for word != 0 {
			u := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, x := range g.succs[u] {
				if !s.Contains(x) && !seen.Contains(x) {
					seen.Add(x)
					stack = append(stack, x)
				}
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, x := range g.succs[v] {
			if s.Contains(x) {
				return false
			}
			if !seen.Contains(x) {
				seen.Add(x)
				stack = append(stack, x)
			}
		}
	}
	return true
}

// ConvexViolators returns the outside nodes that lie on some path between two
// nodes of s. The result is empty iff s is convex.
func (g *Graph) ConvexViolators(s NodeSet) []int {
	reachFromS := NewNodeSet(g.Len())
	var stack []int
	for u := s.Next(0); u >= 0; u = s.Next(u + 1) {
		for _, w := range g.succs[u] {
			if !s.Contains(w) && !reachFromS.Contains(w) {
				reachFromS.Add(w)
				stack = append(stack, w)
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succs[v] {
			if !s.Contains(w) && !reachFromS.Contains(w) {
				reachFromS.Add(w)
				stack = append(stack, w)
			}
		}
	}
	reachToS := NewNodeSet(g.Len())
	stack = stack[:0]
	for u := s.Next(0); u >= 0; u = s.Next(u + 1) {
		for _, w := range g.preds[u] {
			if !s.Contains(w) && !reachToS.Contains(w) {
				reachToS.Add(w)
				stack = append(stack, w)
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.preds[v] {
			if !s.Contains(w) && !reachToS.Contains(w) {
				reachToS.Add(w)
				stack = append(stack, w)
			}
		}
	}
	var out []int
	for v := 0; v < g.Len(); v++ {
		if reachFromS.Contains(v) && reachToS.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// ConnectedComponents partitions the subset s into weakly connected
// components (treating edges as undirected, restricted to s). Components are
// returned in order of their smallest member.
func (g *Graph) ConnectedComponents(s NodeSet) []NodeSet {
	var comps []NodeSet
	visited := NewNodeSet(g.Len())
	for start := s.Next(0); start >= 0; start = s.Next(start + 1) {
		if visited.Contains(start) {
			continue
		}
		comp := NewNodeSet(g.Len())
		stack := []int{start}
		visited.Add(start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.Add(v)
			for _, w := range g.succs[v] {
				if s.Contains(w) && !visited.Contains(w) {
					visited.Add(w)
					stack = append(stack, w)
				}
			}
			for _, w := range g.preds[v] {
				if s.Contains(w) && !visited.Contains(w) {
					visited.Add(w)
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// LongestPath returns, for every node, the length of the longest path ending
// at that node where each node v contributes weight[v]. It panics if the
// graph is cyclic. This is the standard critical-path recurrence used for
// latency-weighted DFGs.
func (g *Graph) LongestPath(weight []float64) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic("graph: LongestPath on cyclic graph")
	}
	dist := make([]float64, g.Len())
	for _, v := range order {
		best := 0.0
		for _, u := range g.preds[v] {
			if dist[u] > best {
				best = dist[u]
			}
		}
		dist[v] = best + weight[v]
	}
	return dist
}
