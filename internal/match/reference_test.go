package match

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dfg"
	"repro/internal/graph"
)

// findReference is the original map-based searcher, kept as the oracle for
// find. It binds the pattern nodes in the same order (refOrder, computed
// its own way) and tries the same candidates in the same order, one budget
// unit per search call, but re-checks every bound pair with four HasEdge
// scans per candidate. Like find, it also returns the number of search
// states visited and whether the budget ran out.
func findReference(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) ([]Mapping, int, bool) {
	return searchReference(pd, pNodes, td, maxMatches, limit, true)
}

// findMostConstrained is the reference searcher under the level order find
// used before its connectivity-first one: every pattern node ranked by the
// global key alone, adjacent to an earlier one or not. Its levels may have
// no bound neighbour, so its tree is larger, but a complete run yields the
// same mappings as a set.
func findMostConstrained(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) ([]Mapping, int, bool) {
	return searchReference(pd, pNodes, td, maxMatches, limit, false)
}

func searchReference(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int, connectivityFirst bool) ([]Mapping, int, bool) {
	pids := pNodes.Values()
	if len(pids) == 0 {
		return nil, 0, false
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
			return nil, 0, false
		}
		cands[p] = cs
	}
	order := refOrder(pd, pids, cands, connectivityFirst)

	s := &refSearcher{
		pd: pd, td: td,
		order: order, cands: cands,
		mapping: Mapping{}, usedT: map[int]bool{},
		max: maxMatches, budget: limit,
	}
	s.search(0)
	return s.found, limit - s.budget, s.exhausted
}

// refOrder sorts the pattern nodes by the global key: fewest candidates,
// then most edges inside the pattern, then lowest ID. Connectivity-first,
// it then places them one at a time. The next is a node adjacent to a
// placed one: the fewest candidates, then the most edges to placed nodes,
// then the global key. Only when no unplaced node is adjacent to a placed
// one does the global key alone pick it.
func refOrder(pd *dfg.DFG, pids []int, cands map[int][]int, connectivityFirst bool) []int {
	edges := func(p int, to []int) int {
		n := 0
		for _, q := range to {
			if pd.Data.HasEdge(p, q) {
				n++
			}
			if pd.Data.HasEdge(q, p) {
				n++
			}
		}
		return n
	}
	order := append([]int(nil), pids...)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(cands[a]) != len(cands[b]) {
			return len(cands[a]) < len(cands[b])
		}
		if ea, eb := edges(a, pids), edges(b, pids); ea != eb {
			return ea > eb
		}
		return a < b
	})
	if !connectivityFirst {
		return order
	}
	placed := make([]int, 0, len(order))
	for len(order) > 0 {
		// order stays sorted by the global key, so on a tie the earlier
		// index wins.
		pick := 0
		for i, p := range order {
			e, best := edges(p, placed), edges(order[pick], placed)
			if e == 0 {
				continue
			}
			if best == 0 || len(cands[p]) < len(cands[order[pick]]) ||
				len(cands[p]) == len(cands[order[pick]]) && e > best {
				pick = i
			}
		}
		placed = append(placed, order[pick])
		order = append(order[:pick], order[pick+1:]...)
	}
	return placed
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
	// exhausted is set when a search call finds the budget used up.
	exhausted bool
}

func (s *refSearcher) search(depth int) bool {
	if s.budget <= 0 {
		s.exhausted = true
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

// canonicalReference is Canonical as first written, one fmt.Sprintf per node
// per round over maps keyed by node ID, kept as the oracle for Canonical.
func canonicalReference(d *dfg.DFG, nodes graph.NodeSet) string {
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
