// Package merging implements the ISE-merging stage of the design flow
// (§3.1): if candidate B's datapath is a subgraph of candidate A's, B need
// not own silicon — its instances execute on A's ASFU. Identical candidates
// likewise share one ASFU (the degenerate case of subgraph merging, and the
// basis of hardware sharing during selection).
//
// The paper's two merge conditions hold here by construction: (1) we only
// merge B into A when B's latency is at least that of the matched
// sub-datapath inside A, so no instance gets slower; (2) the modeled machine
// has a single ASFU, so two ISEs are never executed simultaneously.
package merging

import (
	"sort"
	"sync"

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
	// matchCache memoizes per-target pattern occurrences; guarded by mu.
	matchCache map[*dfg.DFG][]match.Mapping
}

// Matches returns (and memoizes) the pattern occurrences of this candidate
// in target DFG d. Selection sweeps evaluate the same candidates under many
// constraints; the occurrences never change.
func (c *Candidate) Matches(d *dfg.DFG, maxMatches int) []match.Mapping {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ms, ok := c.matchCache[d]; ok {
		return ms
	}
	ms := match.Find(c.DFG, c.ISE.Nodes, d, maxMatches)
	if c.matchCache == nil {
		c.matchCache = map[*dfg.DFG][]match.Mapping{}
	}
	c.matchCache[d] = ms
	return ms
}

// Group is a set of candidates sharing one ASFU. AreaUM2 is the hardware
// cost of the whole group: the area of its largest member (the shared
// datapath must contain every member's pattern).
type Group struct {
	Members []*Candidate
	AreaUM2 float64
}

// Merge partitions candidates into hardware-sharing groups. Candidates with
// identical structure always share; candidate B additionally joins A's group
// when B's pattern embeds into A's datapath without violating the latency
// condition.
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
// latency at least that of the matched sub-datapath (merge condition 1).
func SubgraphOf(b, a *Candidate) bool {
	ms := match.Find(b.DFG, b.ISE.Nodes, a.DFG, 0)
	var assign sched.Assignment // a's chosen options, built on first use
	for _, m := range ms {
		inside := true
		for _, t := range m {
			if !a.ISE.Nodes.Contains(t) {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		// Latency of the matched sub-datapath under a's chosen options.
		sub := m.Targets(a.DFG.Len())
		if assign == nil {
			assign = core.BuildAssignment(a.DFG, []*core.ISE{a.ISE})
		}
		subDelay := sched.GroupDelayNS(a.DFG, sub, assign)
		if b.ISE.Cycles >= sched.CyclesForDelay(subDelay) {
			return true
		}
	}
	return false
}
