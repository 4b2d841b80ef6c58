// Package match implements labeled subgraph isomorphism over dataflow
// graphs. Both ISE merging (is candidate B a subgraph of candidate A?) and
// ISE replacement (where else in the program does a selected ISE's pattern
// occur?) reduce to this search. Patterns are node subsets of a DFG labeled
// by opcode; a match is an injective mapping preserving labels and inducing
// exactly the pattern's internal dataflow edges.
package match

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/arena"
	"repro/internal/dfg"
	"repro/internal/graph"
)

// Mapping maps pattern node IDs to target node IDs.
type Mapping map[int]int

// DefaultLimit bounds the number of search states explored per call, so a
// pathological pattern gives up rather than stalls the flow.
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
// connectivity-first. The first is the most constrained (fewest candidates,
// then most internal edges, then lowest ID). Each next one is adjacent to
// a bound node: fewest candidates, then most edges to bound nodes, then the
// first key; a disconnected pattern starts each further component by the
// first key. Each is tried against its candidates in ascending target ID
// order.
//
// A call explores at most DefaultLimit search states and returns the
// mappings found by then; FindChecked also reports whether the budget ran
// out.
func Find(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches int) []Mapping {
	ms, _, _ := find(pd, pNodes, td, maxMatches, DefaultLimit)
	return ms
}

// FindChecked is Find that also reports whether the search was truncated:
// it ran out of its DefaultLimit budget before it enumerated every mapping
// or reached maxMatches, so mappings may be missing from the list.
func FindChecked(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches int) (ms []Mapping, truncated bool) {
	ms, _, truncated = find(pd, pNodes, td, maxMatches, DefaultLimit)
	return ms, truncated
}

// FindEachIn calls yield with each mapping of pNodes into td whose targets
// all lie in the set within, and stops the search as soon as yield returns
// false. Candidate targets outside within are never bound, so it yields
// exactly the mappings of the unrestricted search that lie in within, under
// its own DefaultLimit budget. It reports whether the search was complete:
// false when the budget ran out or yield stopped it. The restricted tree is
// smaller and its pattern order may differ, so its order says nothing about
// the unrestricted search's.
func FindEachIn(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, within graph.NodeSet, yield func(Mapping) bool) (complete bool) {
	_, complete = each(pd, pNodes, td, &within, DefaultLimit, yield)
	return complete
}

// find is Find with an explicit search-state budget. It also returns the
// number of search states it visited and whether the budget ran out before
// the search ended or reached maxMatches.
func find(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) (ms []Mapping, states int, truncated bool) {
	capped := false
	states, complete := each(pd, pNodes, td, nil, limit, func(m Mapping) bool {
		ms = append(ms, m)
		capped = maxMatches > 0 && len(ms) >= maxMatches
		return !capped
	})
	return ms, states, !complete && !capped
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
	// anchor is an earlier level whose pattern node is adjacent to p, or -1.
	// Every consistent target is a neighbour of the anchor's bound target.
	anchor int
	t      int // target bound here while the search is deeper
}

// each runs the search under an explicit budget, calling yield with every
// mapping in enumeration order until yield returns false or the budget is
// used up. A non-nil within restricts the targets to that set. It returns
// the number of search states visited and whether the search was complete
// (neither the budget nor yield stopped it).
func each(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, within *graph.NodeSet, limit int, yield func(Mapping) bool) (states int, complete bool) {
	n := pNodes.Len()
	if n == 0 {
		return 0, true
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.pids = pNodes.AppendValues(sc.pids[:0])
	lv := sc.lv[:0]
	for _, p := range sc.pids {
		l := level{p: p, anchor: -1}
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
	sc.lv = lv
	// One buffer holds depthOfT and every candidate list, which are built
	// once per opcode and shared.
	total := 0
	for t, nd := range td.Nodes {
		if nd.ISEEligible() && admits(within, t) && slices.ContainsFunc(lv, func(l level) bool { return pd.Nodes[l.p].Instr.Op == nd.Instr.Op }) {
			total++
		}
	}
	sc.buf = arena.Grow(sc.buf, td.Len()+total)
	depthOfT, pool := sc.buf[:td.Len()], sc.buf[td.Len():td.Len()]
	for i := range lv {
		l := &lv[i]
		op := pd.Nodes[l.p].Instr.Op
		for _, prev := range lv[:i] {
			if pd.Nodes[prev.p].Instr.Op == op {
				l.cands = prev.cands
				break
			}
		}
		if l.cands == nil {
			start := len(pool)
			for t, nd := range td.Nodes {
				if nd.Instr.Op == op && nd.ISEEligible() && admits(within, t) {
					pool = append(pool, t)
				}
			}
			l.cands = pool[start:len(pool):len(pool)]
		}
		if len(l.cands) == 0 {
			return 0, true
		}
	}
	// Order pattern nodes connectivity-first (VF2++, RI): each level after
	// the first of a component is a pattern node adjacent to an earlier
	// level, so every such level has an anchor. nOut and nIn count a
	// node's edges to the levels placed so far.
	for i := range lv {
		best := i
		for j := i + 1; j < len(lv); j++ {
			if before(&lv[j], &lv[best]) {
				best = j
			}
		}
		lv[i], lv[best] = lv[best], lv[i]
		for j := i + 1; j < len(lv); j++ {
			if pd.Data.HasEdge(lv[j].p, lv[i].p) {
				lv[j].nOut++
			}
			if pd.Data.HasEdge(lv[i].p, lv[j].p) {
				lv[j].nIn++
			}
		}
	}

	sc.adj = arena.Grow(sc.adj, n*n)
	clear(sc.adj)
	s := &searcher{
		pd:       pd,
		td:       td,
		lv:       lv,
		adj:      sc.adj,
		depthOfT: depthOfT,
		within:   within,
		yield:    yield,
		budget:   limit,
	}
	for d := range lv {
		for e := range lv[:d] {
			if pd.Data.HasEdge(lv[d].p, lv[e].p) {
				s.adj[d*n+e] |= edgeOut
			}
			if pd.Data.HasEdge(lv[e].p, lv[d].p) {
				s.adj[d*n+e] |= edgeIn
			}
		}
		// Prefer an edgeOut anchor, whose candidates are target
		// predecessors: a node's in-degree is bounded by its operand count,
		// its out-degree is not.
		for e := range lv[:d] {
			if s.adj[d*n+e]&edgeOut != 0 {
				lv[d].anchor = e
				break
			}
			if lv[d].anchor < 0 && s.adj[d*n+e]&edgeIn != 0 {
				lv[d].anchor = e
			}
		}
	}
	for t := range depthOfT {
		depthOfT[t] = -1
	}
	stopped := s.search(0)
	return limit - s.budget, !stopped
}

// before reports whether level a binds before level b among the levels not
// yet placed: one adjacent to a placed level comes first, then fewer
// candidates, then more edges to placed levels, more internal edges and the
// lower pattern ID. With nothing placed, or only other components, that is
// the most-constrained-first key.
func before(a, b *level) bool {
	ca, cb := a.nOut+a.nIn, b.nOut+b.nIn
	if (ca > 0) != (cb > 0) {
		return ca > 0
	}
	if len(a.cands) != len(b.cands) {
		return len(a.cands) < len(b.cands)
	}
	if ca != cb {
		return ca > cb
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.p < b.p
}

// scratch holds one search's buffers: the pattern IDs, the levels, the
// buffer shared by depthOfT and the candidate lists, and the adjacency
// rows. A search takes one from scratchPool and returns it when done, so a
// steady stream of searches allocates only the mappings it yields.
type scratch struct {
	pids []int
	lv   []level
	buf  []int
	adj  []uint8
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// searcher binds level d's pattern node to a target node at depth d. All
// state is indexed by depth or target ID.
type searcher struct {
	pd, td *dfg.DFG
	lv     []level
	// adj[d*len(lv)+e], e < d, holds the edgeOut/edgeIn bits between the
	// pattern nodes of levels d and e.
	adj      []uint8
	depthOfT []int          // depth a target is bound at, -1 when unused
	within   *graph.NodeSet // the allowed targets, nil for all
	yield    func(Mapping) bool
	budget   int
}

// search tries every candidate for level d in ascending target ID order and
// reports whether the whole search must stop.
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
		return !s.yield(m)
	}
	l := &s.lv[d]
	if l.anchor < 0 {
		for _, t := range l.cands {
			if s.bind(d, t) {
				return true
			}
		}
		return false
	}
	// Only neighbours of the anchor's target can be consistent: its
	// predecessors for an edgeOut anchor, its successors for an edgeIn one.
	// Visiting them in ascending ID order, filtered to the candidates, is
	// the cands scan minus targets consistent would reject. Adjacency lists
	// are not assumed sorted.
	at := s.lv[l.anchor].t
	nbrs := s.td.Data.Succs(at)
	if s.adj[d*len(s.lv)+l.anchor]&edgeOut != 0 {
		nbrs = s.td.Data.Preds(at)
	}
	op := s.pd.Nodes[l.p].Instr.Op
	for t := nextAbove(nbrs, -1); t >= 0; t = nextAbove(nbrs, t) {
		if n := s.td.Nodes[t]; n.Instr.Op == op && n.ISEEligible() && admits(s.within, t) && s.bind(d, t) {
			return true
		}
	}
	return false
}

// bind tries target t at level d and searches deeper if it is unused and
// consistent. It reports whether the whole search must stop.
func (s *searcher) bind(d, t int) bool {
	if s.depthOfT[t] >= 0 || !s.consistent(d, t) {
		return false
	}
	s.lv[d].t = t
	s.depthOfT[t] = d
	stop := s.search(d + 1)
	s.depthOfT[t] = -1
	return stop
}

// admits reports whether target t is allowed: within is nil or holds t.
func admits(within *graph.NodeSet, t int) bool {
	return within == nil || within.Contains(t)
}

// nextAbove returns the smallest element of xs greater than x, or -1.
func nextAbove(xs []int, x int) int {
	next := -1
	for _, v := range xs {
		if v > x && (next < 0 || v < next) {
			next = v
		}
	}
	return next
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
//
// A node's label in the next round is "label(ins|outs)": its label, then
// the sorted labels of its in-set predecessors and of its in-set
// successors, each list joined by commas. The fingerprint is the sorted
// final labels joined by semicolons. Labels are indexed by the node's
// position in the set. A round writes every new label into one builder
// sized up front, so it allocates once, and each label is a substring of
// the builder's string.
func Canonical(d *dfg.DFG, nodes graph.NodeSet) string {
	ids := nodes.Values()
	label := make([]string, len(ids))
	for i, v := range ids {
		label[i] = d.Nodes[v].Instr.Op.String()
	}
	next := make([]string, len(ids))
	end := make([]int, len(ids))
	var nbrs []string
	// inSet sets nbrs to the labels of the nodes of vs in the set.
	inSet := func(vs []int) {
		nbrs = nbrs[:0]
		for _, u := range vs {
			if j, ok := slices.BinarySearch(ids, u); ok {
				nbrs = append(nbrs, label[j])
			}
		}
	}
	var b strings.Builder
	// writeSorted writes the sorted labels of the nodes of vs in the set,
	// comma-separated.
	writeSorted := func(vs []int) {
		inSet(vs)
		slices.Sort(nbrs)
		for k, l := range nbrs {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
		}
	}
	for round := 0; round < 3; round++ {
		size := 0 // an upper bound: one comma per neighbour
		for i, v := range ids {
			size += len(label[i]) + len("(|)")
			for _, vs := range [2][]int{d.Data.Preds(v), d.Data.Succs(v)} {
				inSet(vs)
				for _, l := range nbrs {
					size += len(l) + 1
				}
			}
		}
		b.Reset()
		b.Grow(size)
		for i, v := range ids {
			b.WriteString(label[i])
			b.WriteByte('(')
			writeSorted(d.Data.Preds(v))
			b.WriteByte('|')
			writeSorted(d.Data.Succs(v))
			b.WriteByte(')')
			end[i] = b.Len()
		}
		all := b.String()
		for i := range next {
			start := 0
			if i > 0 {
				start = end[i-1]
			}
			next[i] = all[start:end[i]]
		}
		label, next = next, label
	}
	slices.Sort(label)
	return strings.Join(label, ";")
}
