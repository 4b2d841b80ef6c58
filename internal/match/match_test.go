package match

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/randprog"
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

// crcStep emits the and/sub/srl/and/xor CRC bit-step once per call.
func crcStep(b *prog.Builder, crc, poly prog.Reg) {
	b.I(isa.OpANDI, prog.T1, crc, 1)
	b.R(isa.OpSUB, prog.T2, prog.Zero, prog.T1)
	b.I(isa.OpSRL, prog.T3, crc, 1)
	b.R(isa.OpAND, prog.T2, poly, prog.T2)
	b.R(isa.OpXOR, crc, prog.T3, prog.T2)
}

func TestFindSelfMatch(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1)
	ms := Find(d, pat, d, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1 (self)", len(ms))
	}
	if ms[0][0] != 0 || ms[0][1] != 1 {
		t.Fatalf("mapping %v", ms[0])
	}
}

func TestFindRepeatedPattern(t *testing.T) {
	// The CRC bit-step appears 4 times in an unrolled block; the pattern
	// from the first instance must match all four.
	d := blockDFG(t, func(b *prog.Builder) {
		for i := 0; i < 4; i++ {
			crcStep(b, prog.S3, prog.S2)
		}
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1, 2, 3, 4)
	ms := Find(d, pat, d, 0)
	if len(ms) != 4 {
		t.Fatalf("got %d matches, want 4", len(ms))
	}
	// Matches must be vertical copies: each maps the 5 pattern nodes onto a
	// contiguous 5-node instance.
	seen := map[int]bool{}
	for _, m := range ms {
		base := m[0] // instance offset of the andi node
		if base%5 != 0 {
			t.Errorf("instance base %d not aligned", base)
		}
		if seen[base] {
			t.Errorf("duplicate instance at %d", base)
		}
		seen[base] = true
		for p, tgt := range m {
			if tgt != base+p {
				t.Errorf("node %d mapped to %d, want %d", p, tgt, base+p)
			}
		}
	}
}

func TestFindRespectsOpcodes(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0) // pattern: add->xor
		b.R(isa.OpADD, prog.T2, prog.A2, prog.A3)
		b.R(isa.OpOR, prog.T3, prog.T2, prog.A2) // decoy: add->or
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1)
	ms := Find(d, pat, d, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1 (or-decoy must not match)", len(ms))
	}
}

func TestFindRequiresInducedEdges(t *testing.T) {
	// Pattern: two independent adds. A dependent add pair must not match.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // n0
		b.R(isa.OpADD, prog.T1, prog.A2, prog.A3) // n1 independent of n0
		b.R(isa.OpADD, prog.T2, prog.A0, prog.A1) // n2
		b.R(isa.OpADD, prog.T3, prog.T2, prog.A3) // n3 depends on n2
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1)
	for _, m := range Find(d, pat, d, 0) {
		a, b := m[0], m[1]
		if d.Data.HasEdge(a, b) || d.Data.HasEdge(b, a) {
			t.Errorf("independent pattern matched dependent nodes %d,%d", a, b)
		}
	}
	// Pattern: the dependent pair. It must match only {2,3}.
	dep := graph.NodeSetOf(d.Len(), 2, 3)
	ms := Find(d, dep, d, 0)
	if len(ms) != 1 || ms[0][2] != 2 || ms[0][3] != 3 {
		t.Fatalf("dependent pattern matches = %v", ms)
	}
}

func TestFindMaxMatches(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		for i := 0; i < 6; i++ {
			b.R(isa.OpADD, prog.T0+prog.Reg(i), prog.A0, prog.A1)
		}
	})
	pat := graph.NodeSetOf(d.Len(), 0)
	ms := Find(d, pat, d, 2)
	if len(ms) != 2 {
		t.Fatalf("maxMatches ignored: %d", len(ms))
	}
}

func TestFindCrossDFG(t *testing.T) {
	pd := blockDFG(t, func(b *prog.Builder) {
		crcStep(b, prog.S3, prog.S2)
	})
	td := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T5, prog.A0, prog.A1) // noise
		crcStep(b, prog.S4, prog.S5)              // the instance
		b.R(isa.OpOR, prog.T6, prog.T5, prog.A0)  // noise
	})
	pat := graph.NodeSetOf(pd.Len(), 0, 1, 2, 3, 4)
	ms := Find(pd, pat, td, 0)
	if len(ms) != 1 {
		t.Fatalf("cross-DFG matches = %d, want 1", len(ms))
	}
}

func TestFindNoCandidates(t *testing.T) {
	pd := blockDFG(t, func(b *prog.Builder) {
		b.Mult(isa.OpMULT, prog.A0, prog.A1)
	})
	td := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
	})
	if ms := Find(pd, graph.NodeSetOf(pd.Len(), 0), td, 0); ms != nil {
		t.Fatalf("matches without candidates: %v", ms)
	}
	if ms := Find(pd, graph.NewNodeSet(pd.Len()), td, 0); ms != nil {
		t.Fatalf("matches for empty pattern: %v", ms)
	}
}

func TestMappingHelpers(t *testing.T) {
	m := Mapping{0: 5, 1: 7}
	ts := m.Targets(10)
	if !ts.Contains(5) || !ts.Contains(7) || ts.Len() != 2 {
		t.Fatalf("Targets = %v", ts)
	}
	if !m.Overlaps(graph.NodeSetOf(10, 7)) {
		t.Error("Overlaps false negative")
	}
	if m.Overlaps(graph.NodeSetOf(10, 6)) {
		t.Error("Overlaps false positive")
	}
}

func TestCanonicalDistinguishesStructure(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		// chain add->xor
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		// independent add, xor
		b.R(isa.OpADD, prog.T2, prog.A2, prog.A3)
		b.R(isa.OpXOR, prog.T3, prog.A2, prog.A3)
		// another chain add->xor (identical to first)
		b.R(isa.OpADD, prog.T4, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T5, prog.T4, prog.A0)
	})
	chain1 := Canonical(d, graph.NodeSetOf(d.Len(), 0, 1))
	indep := Canonical(d, graph.NodeSetOf(d.Len(), 2, 3))
	chain2 := Canonical(d, graph.NodeSetOf(d.Len(), 4, 5))
	if chain1 != chain2 {
		t.Error("identical structures hash differently")
	}
	if chain1 == indep {
		t.Error("chain and independent pair hash identically")
	}
}

// TestCanonicalMatchesReference compares Canonical with the Sprintf-based
// canonicalReference, byte for byte, on connected samples and arbitrary
// subsets of the paper kernels' hot blocks and of internal/randprog DFGs,
// and requires the samples to produce many distinct fingerprints.
func TestCanonicalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ds := append([]*dfg.DFG(nil), kernelDFGs()...)
	for i := 0; i < 40; i++ {
		ds = append(ds, randprog.DFG(r, randprog.Config{Ops: 5 + r.Intn(40), MemFrac: 0.1, MultFrac: 0.05}))
	}
	distinct := map[string]bool{}
	for _, d := range ds {
		for k := 0; k < 6; k++ {
			pat := sampleConnected(r, d, 1+r.Intn(12))
			if k >= 4 {
				pat = randomSubset(r, d, 1+r.Intn(12))
			}
			got, want := Canonical(d, pat), canonicalReference(d, pat)
			if got != want {
				t.Fatalf("%s pattern %v:\n got %q\nwant %q", d.Name, pat, got, want)
			}
			distinct[got] = true
		}
	}
	if len(distinct) < 100 {
		t.Fatalf("only %d distinct fingerprints; the samples no longer exercise Canonical", len(distinct))
	}
}

// sinkMapping makes the mapping a test builds escape, as find's do.
var sinkMapping Mapping

// TestFindAllocs pins the allocations of BenchmarkMatchFind's search (the
// first five eligible operations of crc32/O3's hottest block, matched in
// that block): a call takes its buffers (pattern IDs, levels, the target
// buffer, the adjacency rows) from the scratch pool and allocates one map
// per mapping, and nothing per search state. (testing.AllocsPerRun rounds
// its average down, so a pool emptied by a rare GC does not show; the race
// detector empties it far more often.)
func TestFindAllocs(t *testing.T) {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
	pat := graph.NewNodeSet(d.Len())
	for v := 0; v < d.Len() && pat.Len() < 5; v++ {
		if d.Nodes[v].ISEEligible() {
			pat.Add(v)
		}
	}
	n := len(Find(d, pat, d, 0))
	if n == 0 {
		t.Fatal("no matches")
	}
	ids := pat.Values()
	perMapping := testing.AllocsPerRun(100, func() {
		m := make(Mapping, len(ids))
		for _, p := range ids {
			m[p] = p
		}
		sinkMapping = m
	})
	got := testing.AllocsPerRun(100, func() {
		each(d, pat, d, nil, DefaultLimit, func(Mapping) bool { return true })
	})
	want := float64(n) * perMapping
	if raceEnabled {
		want += 4 // the four buffers, when the pool dropped them
	}
	if got > want {
		t.Errorf("search allocates %v times per call for %d mappings, want at most %v", got, n, want)
	}
}
