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

// subgraphOfReference is SubgraphOf before its early exit: it asks
// match.Find for every mapping and scans the whole list for the first one
// inside a's node set that meets merge condition 1.
func subgraphOfReference(b, a *merging.Candidate) bool {
	ms := match.Find(b.DFG, b.ISE.Nodes, a.DFG, 0)
	var assign sched.Assignment
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
		if assign == nil {
			assign = core.BuildAssignment(a.DFG, []*core.ISE{a.ISE})
		}
		subDelay := sched.GroupDelayNS(a.DFG, m.Targets(a.DFG.Len()), assign)
		if b.ISE.Cycles >= sched.CyclesForDelay(subDelay) {
			return true
		}
	}
	return false
}

// TestSubgraphOfMatchesReference compares SubgraphOf against the reference
// on every ordered pair of candidates in the crc32/O3 and adpcm/O3 pools,
// the design points whose merging spends the most time matching, on the 2-,
// 3- and 4-issue machines under both algorithms.
func TestSubgraphOfMatchesReference(t *testing.T) {
	pairs, embed := 0, 0
	for _, name := range []string{"crc32", "adpcm"} {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []machine.Config{machine.New(2, 4, 2), machine.New(3, 6, 3), machine.New(4, 8, 4)} {
			for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
				pool, err := flow.BuildPool(bm, flow.Options{Machine: cfg, Params: core.FastParams(), Algorithm: algo, HotBlocks: 3})
				if err != nil {
					t.Fatal(err)
				}
				var cands []*merging.Candidate
				for _, g := range pool.Groups {
					cands = append(cands, g.Members...)
				}
				for _, a := range cands {
					for _, b := range cands {
						got, want := merging.SubgraphOf(b, a), subgraphOfReference(b, a)
						if got != want {
							t.Fatalf("%s/O3 %v %v: SubgraphOf(%v, %v) = %v, reference %v",
								name, cfg, algo, b.ISE.Nodes, a.ISE.Nodes, got, want)
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
	if embed == 0 || embed == pairs {
		t.Fatalf("%d of %d pairs embed; the test no longer tells the answers apart", embed, pairs)
	}
	t.Logf("%d of %d ordered pairs embed", embed, pairs)
}
