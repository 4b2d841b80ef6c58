package match

import (
	"sort"

	"repro/internal/dfg"
	"repro/internal/graph"
)

// findReference is the original map-based searcher, kept as the oracle for
// find. It visits the same search tree (same pattern order, same candidate
// order, one budget unit per search call) but re-checks every bound pair
// with four HasEdge scans per candidate. Like find, it also returns the
// number of search states visited.
func findReference(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) ([]Mapping, int) {
	pids := pNodes.Values()
	if len(pids) == 0 {
		return nil, 0
	}
	cands := make(map[int][]int, len(pids))
	for _, p := range pids {
		op := pd.Nodes[p].Instr.Op
		var cs []int
		for t := 0; t < td.Len(); t++ {
			if td.Nodes[t].Instr.Op == op && td.Nodes[t].ISEEligible() {
				cs = append(cs, t)
			}
		}
		if len(cs) == 0 {
			return nil, 0
		}
		cands[p] = cs
	}
	order := append([]int(nil), pids...)
	adj := func(p int) int {
		n := 0
		for _, q := range pd.Data.Succs(p) {
			if pNodes.Contains(q) {
				n++
			}
		}
		for _, q := range pd.Data.Preds(p) {
			if pNodes.Contains(q) {
				n++
			}
		}
		return n
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(cands[a]) != len(cands[b]) {
			return len(cands[a]) < len(cands[b])
		}
		if adj(a) != adj(b) {
			return adj(a) > adj(b)
		}
		return a < b
	})

	s := &refSearcher{
		pd: pd, td: td,
		order: order, cands: cands,
		mapping: Mapping{}, usedT: map[int]bool{},
		max: maxMatches, budget: limit,
	}
	s.search(0)
	return s.found, limit - s.budget
}

type refSearcher struct {
	pd, td  *dfg.DFG
	order   []int
	cands   map[int][]int
	mapping Mapping
	usedT   map[int]bool
	found   []Mapping
	max     int
	budget  int
}

func (s *refSearcher) search(depth int) bool {
	if s.budget <= 0 {
		return true
	}
	s.budget--
	if depth == len(s.order) {
		m := make(Mapping, len(s.mapping))
		for k, v := range s.mapping {
			m[k] = v
		}
		s.found = append(s.found, m)
		return s.max > 0 && len(s.found) >= s.max
	}
	p := s.order[depth]
	for _, t := range s.cands[p] {
		if s.usedT[t] || !s.consistent(p, t) {
			continue
		}
		s.mapping[p] = t
		s.usedT[t] = true
		stop := s.search(depth + 1)
		delete(s.mapping, p)
		delete(s.usedT, t)
		if stop {
			return true
		}
	}
	return false
}

func (s *refSearcher) consistent(p, t int) bool {
	for q, u := range s.mapping {
		pq := s.pd.Data.HasEdge(p, q)
		qp := s.pd.Data.HasEdge(q, p)
		tu := s.td.Data.HasEdge(t, u)
		ut := s.td.Data.HasEdge(u, t)
		if pq != tu || qp != ut {
			return false
		}
	}
	return true
}
