package merging_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/match"
	"repro/internal/merging"
	"repro/internal/sched"
)

// subgraphOfReference is SubgraphOf before its early exit and its in-ISE
// restriction: it asks match.Find for every mapping over a's whole block
// and scans the list for the first one inside a's node set that meets
// merge condition 1. It also reports whether that search was truncated.
func subgraphOfReference(b, a *merging.Candidate) (ok, truncated bool) {
	ms, truncated := match.FindChecked(b.DFG, b.ISE.Nodes, a.DFG, 0)
	for _, m := range ms {
		if qualifiesReference(b, a, m) {
			return true, truncated
		}
	}
	return false, truncated
}

// qualifiesReference reports whether mapping m of b's pattern lies inside
// a's node set and meets merge condition 1.
func qualifiesReference(b, a *merging.Candidate, m match.Mapping) bool {
	for _, t := range m {
		if !a.ISE.Nodes.Contains(t) {
			return false
		}
	}
	assign := core.BuildAssignment(a.DFG, []*core.ISE{a.ISE})
	subDelay := sched.GroupDelayNS(a.DFG, m.Targets(a.DFG.Len()), assign)
	return b.ISE.Cycles >= sched.CyclesForDelay(subDelay)
}

// TestSubgraphOfMatchesReference compares SubgraphOf against the reference
// on every ordered pair of candidates in the crc32/O3 and adpcm/O3 pools,
// the design points whose merging spends the most time matching (the
// flow-match grid: all six machines, both algorithms, FastParams seeds 1
// and 2). Neither the reference's whole-block search nor SubgraphOf's
// in-ISE search may run out of budget on any pair, and both answers must
// occur.
func TestSubgraphOfMatchesReference(t *testing.T) {
	pairs, embed := 0, 0
	for _, name := range []string{"crc32", "adpcm"} {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range machine.Configs() {
			for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
				for _, seed := range []int64{1, 2} {
					p := core.FastParams()
					p.Seed = seed
					pool, err := flow.BuildPool(bm, flow.Options{Machine: cfg, Params: p, Algorithm: algo, HotBlocks: 3})
					if err != nil {
						t.Fatal(err)
					}
					var cands []*merging.Candidate
					for _, g := range pool.Groups {
						cands = append(cands, g.Members...)
					}
					for _, a := range cands {
						for _, b := range cands {
							before := b.Truncated()
							got := merging.SubgraphOf(b, a)
							want, truncated := subgraphOfReference(b, a)
							if got != want || truncated || b.Truncated() != before {
								t.Fatalf("%s/O3 %v %v seed %d: SubgraphOf(%v, %v) = %v (truncated %v), reference %v (truncated %v)",
									name, cfg, algo, seed, b.ISE.Nodes, a.ISE.Nodes, got, b.Truncated() != before, want, truncated)
							}
							pairs++
							if got {
								embed++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d ordered pairs embed", embed, pairs)
	if embed == 0 || embed == pairs {
		t.Fatalf("%d of %d pairs embed; the test no longer tells the answers apart", embed, pairs)
	}
}
