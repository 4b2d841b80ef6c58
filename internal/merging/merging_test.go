package merging

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/match"
	"repro/internal/prog"
)

func blockDFG(t *testing.T, emit func(b *prog.Builder)) *dfg.DFG {
	t.Helper()
	b := prog.NewBuilder("t")
	emit(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lv := prog.ComputeLiveness(p)
	return dfg.Build(p, 0, 1, lv.LiveOut[0])
}

// candOf builds a candidate from node IDs with first-option hardware.
func candOf(d *dfg.DFG, gain float64, ids ...int) *Candidate {
	s := graph.NodeSetOf(d.Len(), ids...)
	return &Candidate{ISE: core.NewISE(d, s, map[int]int{}), DFG: d, Gain: gain}
}

func TestMergeIdenticalStructuresShare(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpAND, prog.T2, prog.A2, prog.A3)
		b.R(isa.OpXOR, prog.T3, prog.T2, prog.A2)
	})
	a := candOf(d, 10, 0, 1)
	b := candOf(d, 5, 2, 3)
	groups := Merge([]*Candidate{a, b})
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1 shared", len(groups))
	}
	if len(groups[0].Members) != 2 {
		t.Fatalf("group members = %d", len(groups[0].Members))
	}
	if groups[0].AreaUM2 != a.ISE.AreaUM2 {
		t.Errorf("group area %v, want representative's %v", groups[0].AreaUM2, a.ISE.AreaUM2)
	}
}

func TestMergeSubgraphIntoLarger(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		// Large: and -> xor -> or chain.
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpOR, prog.T2, prog.T1, prog.A1)
		// Small: and -> xor only (a subgraph of the large pattern).
		b.R(isa.OpAND, prog.T3, prog.A2, prog.A3)
		b.R(isa.OpXOR, prog.T4, prog.T3, prog.A2)
	})
	large := candOf(d, 10, 0, 1, 2)
	small := candOf(d, 4, 3, 4)
	groups := Merge([]*Candidate{large, small})
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want subgraph merged into 1", len(groups))
	}
	if groups[0].Members[0] != large {
		t.Error("representative is not the larger candidate")
	}
	if groups[0].AreaUM2 != large.ISE.AreaUM2 {
		t.Errorf("area %v, want %v", groups[0].AreaUM2, large.ISE.AreaUM2)
	}
}

func TestMergeKeepsDistinctStructures(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		b.Mult(isa.OpMULT, prog.A2, prog.A3)
		b.MoveFrom(isa.OpMFLO, prog.T2)
		b.R(isa.OpADD, prog.T3, prog.T2, prog.A2)
		b.R(isa.OpSUB, prog.T4, prog.T3, prog.A3)
	})
	a := candOf(d, 10, 0, 1) // and->xor
	b := candOf(d, 8, 4, 5)  // add->sub
	groups := Merge([]*Candidate{a, b})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 distinct", len(groups))
	}
}

func TestSubgraphOfLatencyCondition(t *testing.T) {
	// A one-op pattern embeds structurally, but merging must honour the
	// latency condition: B.Cycles >= matched sub-datapath cycles. Single
	// cells are all sub-cycle, so the condition holds and merge is allowed.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpAND, prog.T2, prog.A2, prog.A3)
		b.R(isa.OpXOR, prog.T3, prog.T2, prog.A2)
	})
	big := candOf(d, 10, 0, 1)
	sub := candOf(d, 3, 2) // single and
	if !SubgraphOf(sub, big) {
		t.Error("single-op subgraph not recognized")
	}
	if SubgraphOf(big, sub) {
		t.Error("larger pattern claimed inside smaller")
	}
}

// TestPreSearchReportsExhaustedBudget embeds 8 unconnected ANDs into 18:
// far more injective mappings than match.DefaultLimit states, none meeting
// merge condition 1 once b claims zero cycles. SubgraphOf's in-ISE search
// runs out of budget, so it must say no and count the search as truncated
// on b, and only on b.
func TestPreSearchReportsExhaustedBudget(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		for i := 0; i < 18; i++ {
			b.R(isa.OpAND, prog.T0+prog.Reg(i), prog.A0, prog.A1)
		}
	})
	all := make([]int, 18)
	for i := range all {
		all[i] = i
	}
	a := candOf(d, 10, all...)
	b := candOf(d, 5, all[:8]...)
	b.ISE.Cycles = 0
	if SubgraphOf(b, a) {
		t.Fatal("a zero-cycle pattern embeds")
	}
	if b.Truncated() != 1 || a.Truncated() != 0 {
		t.Fatalf("Truncated: b %d, a %d; want 1 and 0", b.Truncated(), a.Truncated())
	}
	// A connected pattern's search completes.
	c := candOf(d, 5, 0)
	if !SubgraphOf(c, a) || c.Truncated() != 0 {
		t.Fatalf("one AND: SubgraphOf false or %d truncated searches", c.Truncated())
	}
}

// TestMatchesCountsTruncation: a memoized occurrence search that runs out
// of budget counts once in Truncated, however often its key is asked for.
func TestMatchesCountsTruncation(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		for i := 0; i < 18; i++ {
			b.R(isa.OpAND, prog.T0+prog.Reg(i), prog.A0, prog.A1)
		}
	})
	c := candOf(d, 5, 0, 1, 2, 3, 4, 5, 6, 7)
	for range 2 {
		if got := len(c.Matches(d, 0)); got == 0 {
			t.Fatal("no matches")
		}
	}
	if c.Truncated() != 1 {
		t.Fatalf("Truncated = %d after one truncated search, want 1", c.Truncated())
	}
	if c.Matches(d, 1); c.Truncated() != 1 {
		t.Fatalf("Truncated = %d after a search that stopped at its cap, want 1", c.Truncated())
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(nil); len(got) != 0 {
		t.Fatalf("Merge(nil) = %v", got)
	}
}

func TestMergeSharesAcrossDFGs(t *testing.T) {
	// Identical structures explored in two different blocks share one ASFU.
	mk := func() *dfg.DFG {
		return blockDFG(t, func(b *prog.Builder) {
			b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
			b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		})
	}
	d1, d2 := mk(), mk()
	a := candOf(d1, 10, 0, 1)
	b := &Candidate{ISE: core.NewISE(d2, graph.NodeSetOf(d2.Len(), 0, 1), map[int]int{}), DFG: d2, Gain: 4}
	groups := Merge([]*Candidate{a, b})
	if len(groups) != 1 {
		t.Fatalf("cross-DFG identical structures not shared: %d groups", len(groups))
	}
	if len(groups[0].Members) != 2 {
		t.Fatalf("members = %d", len(groups[0].Members))
	}
}

func TestMatchesMemoized(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
	})
	c := candOf(d, 1, 0, 1)
	m1 := c.Matches(d, 8)
	m2 := c.Matches(d, 8)
	if len(m1) != len(m2) {
		t.Fatal("memoized result differs")
	}
	if len(m1) == 0 {
		t.Fatal("no matches")
	}
}

func TestMatchesMemoKeyedByCap(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpAND, prog.T1, prog.A0, prog.A1)
		b.R(isa.OpAND, prog.T2, prog.A0, prog.A1)
	})
	c := candOf(d, 1, 0)
	if got := len(c.Matches(d, 1)); got != 1 {
		t.Fatalf("Matches(d, 1) = %d mappings, want 1", got)
	}
	if got := len(c.Matches(d, 8)); got != 3 {
		t.Fatalf("Matches(d, 8) after Matches(d, 1) = %d mappings, want 3", got)
	}
	if got := len(c.Matches(d, 1)); got != 1 {
		t.Fatalf("Matches(d, 1) after Matches(d, 8) = %d mappings, want 1", got)
	}
}

// TestMatchesConcurrent drives one candidate's memo from many goroutines at
// once, on one key and on several (run it under -race). Every answer must
// equal match.Find's, and the callers of one key must share the one
// search's slice.
func TestMatchesConcurrent(t *testing.T) {
	mk := func(n int) *dfg.DFG {
		return blockDFG(t, func(b *prog.Builder) {
			for i := 0; i < n; i++ {
				b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
				b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
				b.R(isa.OpOR, prog.A1, prog.T1, prog.A1)
			}
		})
	}
	src := mk(1)
	c := candOf(src, 1, 0, 1)
	type key struct {
		d   *dfg.DFG
		cap int
	}
	var keys []key
	for _, d := range []*dfg.DFG{src, mk(3), mk(6)} {
		for _, cap := range []int{1, 2, 64} {
			keys = append(keys, key{d, cap})
		}
	}
	const perKey = 8
	got := make([][]match.Mapping, len(keys)*perKey)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := keys[i%len(keys)]
			got[i] = c.Matches(k.d, k.cap)
		}(i)
	}
	wg.Wait()
	for i, ms := range got {
		k := keys[i%len(keys)]
		want := match.Find(c.DFG, c.ISE.Nodes, k.d, k.cap)
		if !reflect.DeepEqual(ms, want) {
			t.Fatalf("key %d: Matches = %v, match.Find = %v", i%len(keys), ms, want)
		}
		if len(ms) == 0 {
			t.Fatalf("key %d: no matches", i%len(keys))
		}
		if first := got[i%len(keys)]; &ms[0] != &first[0] {
			t.Fatalf("key %d: callers got different backing arrays", i%len(keys))
		}
	}
}
