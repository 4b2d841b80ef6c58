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
	for _, m := range match.Find(b.DFG, b.ISE.Nodes, a.DFG, 0) {
		if qualifiesReference(b, a, m) {
			return true
		}
	}
	return false
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
// and 2). It also sorts each pair by how SubgraphOf reached its answer and
// requires all three ways to occur: the in-ISE pre-search proves no
// qualifying embedding exists; it finds one and the whole-block search
// confirms it; it finds one but the whole-block search runs out of budget
// first, so the answer is no.
func TestSubgraphOfMatchesReference(t *testing.T) {
	pairs, embed := 0, 0
	var ruledOut, confirmed, exhausted, preExhausted int
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
							got, want := merging.SubgraphOf(b, a), subgraphOfReference(b, a)
							if got != want {
								t.Fatalf("%s/O3 %v %v seed %d: SubgraphOf(%v, %v) = %v, reference %v",
									name, cfg, algo, seed, b.ISE.Nodes, a.ISE.Nodes, got, want)
							}
							pairs++
							if got {
								embed++
							}
							// Whether an in-ISE embedding qualifies, found by a
							// restricted search with the reference's condition.
							found := false
							match.FindEachIn(b.DFG, b.ISE.Nodes, a.DFG, a.ISE.Nodes, func(m match.Mapping) bool {
								found = qualifiesReference(b, a, m)
								return !found
							})
							switch {
							case merging.RuledOut(b, a):
								if found || got {
									t.Fatalf("%s/O3 %v %v seed %d: (%v, %v) ruled out, but an in-ISE embedding qualifies: %v, SubgraphOf %v",
										name, cfg, algo, seed, b.ISE.Nodes, a.ISE.Nodes, found, got)
								}
								ruledOut++
							case found && got:
								confirmed++
							case found:
								exhausted++
							default:
								preExhausted++ // the whole-block search decided
							}
						}
					}
				}
			}
		}
	}
	if embed == 0 || embed == pairs {
		t.Fatalf("%d of %d pairs embed; the test no longer tells the answers apart", embed, pairs)
	}
	t.Logf("%d of %d ordered pairs embed; pre-search: %d ruled out, %d confirmed, %d whole-block budget no, %d out of budget",
		embed, pairs, ruledOut, confirmed, exhausted, preExhausted)
	if ruledOut == 0 || confirmed == 0 || exhausted == 0 {
		t.Fatalf("outcomes: %d ruled out, %d confirmed, %d whole-block budget no; want every one to occur",
			ruledOut, confirmed, exhausted)
	}
}
