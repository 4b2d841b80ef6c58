package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/match"
	"repro/internal/merging"
)

// equalHashShares returns, for one pool, the candidates merging.Merge
// grouped by equal match.Canonical hash alone, each with its group's
// representative: every member after the first whose hash equals the
// first's. A member that joined by subgraph merge never has the
// representative's hash, since Merge tries the hash first.
func equalHashShares(p *flow.Pool) (shares [][2]*merging.Candidate) {
	for _, g := range p.Groups {
		rep := g.Members[0]
		h := match.Canonical(rep.DFG, rep.ISE.Nodes)
		for _, c := range g.Members[1:] {
			if match.Canonical(c.DFG, c.ISE.Nodes) == h {
				shares = append(shares, [2]*merging.Candidate{c, rep})
			}
		}
	}
	return shares
}

// TestEqualHashSharesCondition1 re-counts the candidates that share an
// ASFU by equal Canonical hash in the seed-1 paper matrix (the pools of
// isebench -all: the paper's seven benchmarks, both opt levels, all six
// machines, MI and SI, DefaultParams) and confirms each share with the exact
// matcher and merge condition 1's latency test (merging.SubgraphOf of the
// member into the representative). Merge skips that check on this path, so
// a failing share is an ISE that runs faster alone than on the ASFU it is
// assigned to. The counts are pinned; EXPERIMENTS.md reports them.
func TestEqualHashSharesCondition1(t *testing.T) {
	if raceEnabled {
		t.Skip("builds the 168 pools of the paper matrix; the race detector makes that minutes and checks nothing the flow's race tests do not")
	}
	p := core.DefaultParams()
	p.Seed = 1
	s := NewSuite(p)
	shares, fails, pools := 0, 0, 0
	for _, name := range s.Benchmarks {
		for _, opt := range s.OptLevels {
			for _, cfg := range s.Machines {
				for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
					pool, err := s.Pool(name, opt, cfg, algo)
					if err != nil {
						t.Fatal(err)
					}
					pools++
					for _, sh := range equalHashShares(pool) {
						c, rep := sh[0], sh[1]
						before := c.Truncated()
						ok := merging.SubgraphOf(c, rep)
						if c.Truncated() != before {
							t.Fatalf("%s %s: share check ran out of budget", ConfigLabel(algo, cfg, opt), name)
						}
						shares++
						if !ok {
							fails++
							t.Logf("%s %s: %v (%d cycles) shares %v (%d cycles) but fails condition 1",
								ConfigLabel(algo, cfg, opt), name, c.ISE, c.ISE.Cycles, rep.ISE, rep.ISE.Cycles)
						}
					}
				}
			}
		}
	}
	if pools != 168 || shares != 211 || fails != 0 {
		t.Fatalf("%d pools, %d equal-hash shares, %d failing condition 1; pinned 168, 211, 0", pools, shares, fails)
	}
}
