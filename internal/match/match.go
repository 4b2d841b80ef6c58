// Package match implements labeled subgraph isomorphism over dataflow
// graphs. Both ISE merging (is candidate B a subgraph of candidate A?) and
// ISE replacement (where else in the program does a selected ISE's pattern
// occur?) reduce to this search. Patterns are node subsets of a DFG labeled
// by opcode; a match is an injective mapping preserving labels and inducing
// exactly the pattern's internal dataflow edges.
package match

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dfg"
	"repro/internal/graph"
)

// Mapping maps pattern node IDs to target node IDs.
type Mapping map[int]int

// DefaultLimit bounds the number of search states explored per Find call;
// pathological patterns give up rather than stall the flow.
const DefaultLimit = 200000

// Find returns up to maxMatches injective mappings of the pattern subset
// pNodes of pd onto nodes of td such that opcodes agree and the induced
// dataflow edges are identical. Candidate target nodes are restricted to
// ISE-eligible operations. maxMatches <= 0 means unlimited.
//
// The enumeration order is part of the contract, not an accident of the
// implementation: callers that cap maxMatches keep a prefix of it (replace's
// crossMatches takes the first 64 occurrences and claims them greedily), so
// a different order yields different instances. Pattern nodes are bound
// most-constrained first (fewest candidates, then most internal edges, then
// lowest ID), and each is tried against its candidates in ascending target
// ID order.
//
// A call explores at most DefaultLimit search states. A call that exhausts
// the budget returns the mappings found so far, silently truncated: the
// result does not say whether the search was complete.
func Find(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches int) []Mapping {
	ms, _ := find(pd, pNodes, td, maxMatches, DefaultLimit)
	return ms
}

// Pattern-adjacency bits of searcher.adj.
const (
	edgeOut uint8 = 1 << iota // lv[d].p -> lv[e].p
	edgeIn                    // lv[e].p -> lv[d].p
)

// level is one depth of the search: the pattern node bound there, its
// candidate targets and its edges to the pattern nodes of earlier levels.
type level struct {
	p     int   // pattern node
	cands []int // candidate target nodes, ascending
	deg   int   // p's edges inside the pattern (an ordering key)
	nOut  int   // edges from p to earlier levels' pattern nodes
	nIn   int   // edges to p from earlier levels' pattern nodes
	t     int   // target bound here while the search is deeper
}

// find is Find with an explicit search-state budget. It also returns the
// number of search states it visited; states == limit means the budget was
// used up, so the result may be truncated.
func find(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) (ms []Mapping, states int) {
	n := pNodes.Len()
	if n == 0 {
		return nil, 0
	}
	lv := make([]level, 0, n)
	for _, p := range pNodes.Values() {
		l := level{p: p}
		// Candidate lists are built once per opcode and shared.
		op := pd.Nodes[p].Instr.Op
		for _, prev := range lv {
			if pd.Nodes[prev.p].Instr.Op == op {
				l.cands = prev.cands
				break
			}
		}
		if l.cands == nil {
			for t := 0; t < td.Len(); t++ {
				if td.Nodes[t].Instr.Op == op && td.Nodes[t].ISEEligible() {
					l.cands = append(l.cands, t)
				}
			}
		}
		if len(l.cands) == 0 {
			return nil, 0
		}
		for _, q := range pd.Data.Succs(p) {
			if pNodes.Contains(q) {
				l.deg++
			}
		}
		for _, q := range pd.Data.Preds(p) {
			if pNodes.Contains(q) {
				l.deg++
			}
		}
		lv = append(lv, l)
	}
	// Order pattern nodes most-constrained first: fewest candidates, then
	// most internal adjacency, then lowest ID.
	sort.Slice(lv, func(i, j int) bool {
		a, b := &lv[i], &lv[j]
		if len(a.cands) != len(b.cands) {
			return len(a.cands) < len(b.cands)
		}
		if a.deg != b.deg {
			return a.deg > b.deg
		}
		return a.p < b.p
	})

	s := &searcher{
		td:       td,
		lv:       lv,
		adj:      make([]uint8, n*n),
		depthOfT: make([]int, td.Len()),
		max:      maxMatches,
		budget:   limit,
	}
	for d := range lv {
		for e := range lv[:d] {
			if pd.Data.HasEdge(lv[d].p, lv[e].p) {
				s.adj[d*n+e] |= edgeOut
				lv[d].nOut++
			}
			if pd.Data.HasEdge(lv[e].p, lv[d].p) {
				s.adj[d*n+e] |= edgeIn
				lv[d].nIn++
			}
		}
	}
	for t := range s.depthOfT {
		s.depthOfT[t] = -1
	}
	s.search(0)
	return s.found, limit - s.budget
}

// searcher binds level d's pattern node to a target node at depth d. All
// state is indexed by depth or target ID.
type searcher struct {
	td *dfg.DFG
	lv []level
	// adj[d*len(lv)+e], e < d, holds the edgeOut/edgeIn bits between the
	// pattern nodes of levels d and e.
	adj      []uint8
	depthOfT []int // depth a target is bound at, -1 when unused
	found    []Mapping
	max      int
	budget   int
}

func (s *searcher) search(d int) bool {
	if s.budget <= 0 {
		return true // out of budget: stop the whole search
	}
	s.budget--
	if d == len(s.lv) {
		m := make(Mapping, len(s.lv))
		for _, l := range s.lv {
			m[l.p] = l.t
		}
		s.found = append(s.found, m)
		return s.max > 0 && len(s.found) >= s.max
	}
	for _, t := range s.lv[d].cands {
		if s.depthOfT[t] >= 0 || !s.consistent(d, t) {
			continue
		}
		s.lv[d].t = t
		s.depthOfT[t] = d
		stop := s.search(d + 1)
		s.depthOfT[t] = -1
		if stop {
			return true
		}
	}
	return false
}

// consistent checks that binding level d's pattern node to the unused
// target node t induces exactly the pattern's dataflow edges to every node
// bound at an earlier depth. It walks only t's target neighbours: each bound
// neighbour must have the matching pattern edge, and the count of bound
// neighbours must equal the pattern's. That is exact because the graph
// stores each edge once and the binding is injective, so every earlier
// depth is seen at most once per direction.
func (s *searcher) consistent(d, t int) bool {
	row := s.adj[d*len(s.lv):]
	k := 0
	for _, u := range s.td.Data.Succs(t) {
		if e := s.depthOfT[u]; e >= 0 {
			if row[e]&edgeOut == 0 {
				return false
			}
			k++
		}
	}
	if k != s.lv[d].nOut {
		return false
	}
	k = 0
	for _, u := range s.td.Data.Preds(t) {
		if e := s.depthOfT[u]; e >= 0 {
			if row[e]&edgeIn == 0 {
				return false
			}
			k++
		}
	}
	return k == s.lv[d].nIn
}

// Targets returns the target node set of a mapping.
func (m Mapping) Targets(capacity int) graph.NodeSet {
	s := graph.NewNodeSet(capacity)
	for _, t := range m {
		s.Add(t)
	}
	return s
}

// Overlaps reports whether the mapping's targets intersect the given set.
func (m Mapping) Overlaps(s graph.NodeSet) bool {
	for _, t := range m {
		if s.Contains(t) {
			return true
		}
	}
	return false
}

// Canonical returns a structural fingerprint of the pattern subset: opcodes
// plus iterated neighborhood refinement (Weisfeiler-Leman style, 3 rounds,
// restricted to internal dataflow edges), sorted. Two ISE datapaths with
// equal fingerprints are treated as identical hardware for sharing purposes.
func Canonical(d *dfg.DFG, nodes graph.NodeSet) string {
	ids := nodes.Values()
	label := make(map[int]string, len(ids))
	for _, v := range ids {
		label[v] = d.Nodes[v].Instr.Op.String()
	}
	for round := 0; round < 3; round++ {
		next := make(map[int]string, len(ids))
		for _, v := range ids {
			var ins, outs []string
			for _, p := range d.Data.Preds(v) {
				if nodes.Contains(p) {
					ins = append(ins, label[p])
				}
			}
			for _, q := range d.Data.Succs(v) {
				if nodes.Contains(q) {
					outs = append(outs, label[q])
				}
			}
			sort.Strings(ins)
			sort.Strings(outs)
			next[v] = fmt.Sprintf("%s(%s|%s)", label[v], strings.Join(ins, ","), strings.Join(outs, ","))
		}
		label = next
	}
	all := make([]string, 0, len(ids))
	for _, v := range ids {
		all = append(all, label[v])
	}
	sort.Strings(all)
	return strings.Join(all, ";")
}
