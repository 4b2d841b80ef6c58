// Package merging implements the ISE-merging stage of the design flow
// (§3.1): if candidate B's datapath is a subgraph of candidate A's, B need
// not own silicon — its instances execute on A's ASFU. Identical candidates
// likewise share one ASFU (the degenerate case of subgraph merging, and the
// basis of hardware sharing during selection).
//
// The paper's two merge conditions: (1) no instance gets slower. A subgraph
// merge of B into A happens only when B's latency is at least that of the
// matched sub-datapath inside A (SubgraphOf). Candidates with equal
// match.Canonical hashes, however, share without that check: the hash is
// taken as identity, so condition 1 is assumed, not verified, on that path,
// and a shared candidate can be faster than the representative's datapath.
// (2) Two ISEs never execute simultaneously. This one holds by
// construction: the modeled machine has a single ASFU.
package merging

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/match"
	"repro/internal/sched"
)

// Candidate couples an explored ISE with the DFG it came from and its
// measured worth.
type Candidate struct {
	ISE *core.ISE
	DFG *dfg.DFG
	// Gain is the weighted cycle saving of deploying this ISE in its source
	// block (filled by the design flow before merging).
	Gain float64

	mu sync.Mutex
	// matchCache memoizes pattern occurrences per target and match cap;
	// guarded by mu.
	matchCache map[matchKey]*matchEntry
	// truncated counts this pattern's searches that ran out of budget.
	truncated atomic.Int64
}

// matchKey identifies one Matches query.
type matchKey struct {
	d          *dfg.DFG
	maxMatches int
}

// matchEntry is one key's memo slot. The first caller runs the search under
// once, outside Candidate.mu, so searches of different keys run
// concurrently and callers of the same key wait for the one search.
type matchEntry struct {
	once sync.Once
	ms   []match.Mapping
}

// Matches returns (and memoizes) the pattern occurrences of this candidate
// in target DFG d, capped at maxMatches as match.Find caps them. Selection
// sweeps evaluate the same candidates under many constraints; the
// occurrences never change. Safe for concurrent use: each (d, maxMatches)
// is searched at most once, and every caller gets the same slice. A search
// that runs out of budget counts in Truncated.
func (c *Candidate) Matches(d *dfg.DFG, maxMatches int) []match.Mapping {
	e := c.entry(matchKey{d, maxMatches})
	e.once.Do(func() {
		var truncated bool
		e.ms, truncated = match.FindChecked(c.DFG, c.ISE.Nodes, d, maxMatches)
		if truncated {
			c.truncated.Add(1)
		}
	})
	return e.ms
}

// Truncated returns how many searches of this candidate's pattern ran out
// of match.DefaultLimit: memoized Matches searches and SubgraphOf calls with
// the candidate as b. Their answers may miss occurrences or embeddings.
func (c *Candidate) Truncated() int {
	return int(c.truncated.Load())
}

// entry returns k's memo slot, creating it on first use.
func (c *Candidate) entry(k matchKey) *matchEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.matchCache[k]
	if !ok {
		if c.matchCache == nil {
			c.matchCache = map[matchKey]*matchEntry{}
		}
		e = &matchEntry{}
		c.matchCache[k] = e
	}
	return e
}

// Group is a set of candidates sharing one ASFU. AreaUM2 is the hardware
// cost of the whole group: the area of its largest member (the shared
// datapath must contain every member's pattern).
type Group struct {
	Members []*Candidate
	AreaUM2 float64
}

// Merge partitions candidates into hardware-sharing groups. Candidates with
// equal canonical hashes always share, without a latency check; candidate B
// additionally joins A's group when B's pattern embeds into A's datapath
// without violating the latency condition.
func Merge(cands []*Candidate) []Group {
	// Deterministic processing order: descending size, then area, then gain.
	ordered := append([]*Candidate(nil), cands...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.ISE.Size() != b.ISE.Size() {
			return a.ISE.Size() > b.ISE.Size()
		}
		if a.ISE.AreaUM2 != b.ISE.AreaUM2 {
			return a.ISE.AreaUM2 > b.ISE.AreaUM2
		}
		return a.Gain > b.Gain
	})

	var groups []Group
	canon := map[string]int{} // canonical hash -> group index
	for _, c := range ordered {
		h := match.Canonical(c.DFG, c.ISE.Nodes)
		if gi, ok := canon[h]; ok {
			groups[gi].Members = append(groups[gi].Members, c)
			if c.ISE.AreaUM2 > groups[gi].AreaUM2 {
				groups[gi].AreaUM2 = c.ISE.AreaUM2
			}
			continue
		}
		// Subgraph merge: try to embed c into an existing group's
		// representative (its first, largest member).
		merged := false
		for gi := range groups {
			rep := groups[gi].Members[0]
			if c.ISE.Size() > rep.ISE.Size() {
				continue
			}
			if SubgraphOf(c, rep) {
				groups[gi].Members = append(groups[gi].Members, c)
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		canon[h] = len(groups)
		groups = append(groups, Group{Members: []*Candidate{c}, AreaUM2: c.ISE.AreaUM2})
	}
	return groups
}

// SubgraphOf reports whether b's pattern occurs inside a's node set with b's
// latency at least that of the matched sub-datapath (merge condition 1),
// under a's chosen options. It searches b's pattern over a's nodes only and
// stops at the first embedding that qualifies. A search that runs out of
// budget answers no and counts in b's Truncated.
func SubgraphOf(b, a *Candidate) bool {
	ok := false
	complete := match.FindEachIn(b.DFG, b.ISE.Nodes, a.DFG, a.ISE.Nodes, func(m match.Mapping) bool {
		subDelay := core.GroupDelayNS(a.DFG, m.Targets(a.DFG.Len()), a.ISE.Option)
		ok = b.ISE.Cycles >= sched.CyclesForDelay(subDelay)
		return !ok
	})
	if !ok && !complete {
		b.truncated.Add(1)
	}
	return ok
}
