package dfg

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/prog"
)

// buildBlock assembles a single-block program from the given instructions
// (a halt is appended) and returns its DFG.
func buildBlock(t *testing.T, emit func(b *prog.Builder)) *DFG {
	t.Helper()
	b := prog.NewBuilder("t")
	emit(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lv := prog.ComputeLiveness(p)
	return Build(p, 0, 1, lv.LiveOut[0])
}

func TestDataEdges(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.I(isa.OpORI, prog.T0, prog.Zero, 1)     // n0
		b.I(isa.OpORI, prog.T1, prog.Zero, 2)     // n1
		b.R(isa.OpADD, prog.T2, prog.T0, prog.T1) // n2
		b.R(isa.OpXOR, prog.T3, prog.T2, prog.T0) // n3
	})
	if !d.Data.HasEdge(0, 2) || !d.Data.HasEdge(1, 2) {
		t.Error("missing def-use edges into add")
	}
	if !d.Data.HasEdge(2, 3) || !d.Data.HasEdge(0, 3) {
		t.Error("missing def-use edges into xor")
	}
	if d.Data.HasEdge(1, 3) {
		t.Error("phantom edge n1->n3")
	}
	// $zero reads never create inputs.
	if len(d.Nodes[0].Inputs) != 0 {
		t.Errorf("ori inputs = %v, want none ($zero is free)", d.Nodes[0].Inputs)
	}
}

func TestLastDefWins(t *testing.T) {
	// A redefinition must cut dataflow from the old def.
	d := buildBlock(t, func(b *prog.Builder) {
		b.I(isa.OpORI, prog.T0, prog.Zero, 1)     // n0
		b.I(isa.OpORI, prog.T0, prog.Zero, 2)     // n1 redefines $t0
		b.R(isa.OpADD, prog.T1, prog.T0, prog.T0) // n2 reads n1 only
	})
	if d.Data.HasEdge(0, 2) {
		t.Error("stale def feeds use")
	}
	if !d.Data.HasEdge(1, 2) {
		t.Error("fresh def does not feed use")
	}
}

func TestLiveInInputs(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T2, prog.A0, prog.A1) // both operands live-in
	})
	n := d.Nodes[0]
	if len(n.Inputs) != 2 {
		t.Fatalf("inputs = %v, want 2 live-in sources", n.Inputs)
	}
	for _, in := range n.Inputs {
		if in.Producer != -1 {
			t.Errorf("live-in input has producer %d", in.Producer)
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.Load(isa.OpLW, prog.T0, prog.SP, 0)  // n0
		b.Store(isa.OpSW, prog.T0, prog.SP, 4) // n1
		b.Load(isa.OpLW, prog.T1, prog.SP, 8)  // n2
		b.Store(isa.OpSW, prog.T1, prog.SP, 0) // n3
	})
	// load0 -> store1 (load before store), store1 -> load2, store1 -> store3,
	// load2 -> store3.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}} {
		if !d.G.HasEdge(e[0], e[1]) {
			t.Errorf("missing memory order edge %v", e)
		}
	}
	// The data graph must not carry the pure ordering edges.
	if d.Data.HasEdge(1, 2) {
		t.Error("order edge leaked into data graph")
	}
	// Final store ordered before the terminator (halt is node 4).
	if !d.G.HasEdge(3, 4) {
		t.Error("store not ordered before terminator")
	}
}

func TestInOutCounts(t *testing.T) {
	// n0: t2 = a0+a1; n1: t3 = t2^a0; n2: t4 = t3+t2
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T2, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T3, prog.T2, prog.A0)
		b.R(isa.OpADD, prog.T4, prog.T3, prog.T2)
	})
	all := graph.NodeSetOf(d.Len(), 0, 1, 2)
	if got := d.In(all); got != 2 {
		t.Errorf("In(all) = %d, want 2 ($a0, $a1)", got)
	}
	// Only n2's value would escape — but nothing is live out (halt), and no
	// outside consumer exists.
	if got := d.Out(all); got != 0 {
		t.Errorf("Out(all) = %d, want 0", got)
	}
	sub := graph.NodeSetOf(d.Len(), 0, 1)
	// Inputs: a0, a1 (a0 used twice but one distinct value).
	if got := d.In(sub); got != 2 {
		t.Errorf("In({0,1}) = %d, want 2", got)
	}
	// Both n0 and n1 feed n2 outside the set.
	if got := d.Out(sub); got != 2 {
		t.Errorf("Out({0,1}) = %d, want 2", got)
	}
	one := graph.NodeSetOf(d.Len(), 1)
	// Inputs of n1: value from n0 plus live-in a0.
	if got := d.In(one); got != 2 {
		t.Errorf("In({1}) = %d, want 2", got)
	}
}

func TestLiveOutMarking(t *testing.T) {
	// Value defined in block 0 and used in block 1 must be flagged.
	b := prog.NewBuilder("lo")
	b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // n0 defines live-out $t0
	b.R(isa.OpADD, prog.T1, prog.T0, prog.T0) // n1, $t1 dead
	b.Jump("next")
	b.Label("next")
	b.R(isa.OpADD, prog.V0, prog.T0, prog.Zero)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lv := prog.ComputeLiveness(p)
	d := Build(p, 0, 7, lv.LiveOut[0])
	if !d.Nodes[0].LiveOut {
		t.Error("live-out producer not marked")
	}
	if d.Nodes[1].LiveOut {
		t.Error("dead def marked live-out")
	}
	if d.Weight != 7 {
		t.Errorf("weight = %d", d.Weight)
	}
	// Out must count the live-out node even with no in-block consumer.
	s := graph.NodeSetOf(d.Len(), 0, 1)
	if got := d.Out(s); got != 1 {
		t.Errorf("Out = %d, want 1 (live-out $t0)", got)
	}
}

func TestEligibility(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // eligible
		b.Load(isa.OpLW, prog.T1, prog.SP, 0)     // not eligible
	})
	if !d.Nodes[0].ISEEligible() {
		t.Error("add not eligible")
	}
	if d.Nodes[1].ISEEligible() {
		t.Error("lw eligible")
	}
	if d.AllEligible(graph.NodeSetOf(d.Len(), 0, 1)) {
		t.Error("AllEligible true with a load inside")
	}
	if !d.AllEligible(graph.NodeSetOf(d.Len(), 0)) {
		t.Error("AllEligible false for {add}")
	}
}

func TestCriticalPathLen(t *testing.T) {
	// chain of 3 dependent adds plus 2 independent -> CP = 3 (+halt ordered
	// nowhere).
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpADD, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpADD, prog.T2, prog.T1, prog.A0)
		b.R(isa.OpADD, prog.T3, prog.A2, prog.A3)
		b.R(isa.OpADD, prog.T4, prog.A2, prog.A3)
	})
	if got := d.CriticalPathLen(); got != 3 {
		t.Errorf("CriticalPathLen = %d, want 3", got)
	}
}

func TestGPlusTables(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.Mult(isa.OpMULT, prog.A0, prog.A1)
	})
	if len(d.Nodes[0].SW) != 1 || len(d.Nodes[0].HW) != 2 {
		t.Errorf("add options: sw=%d hw=%d, want 1/2", len(d.Nodes[0].SW), len(d.Nodes[0].HW))
	}
	if len(d.Nodes[1].HW) != 1 {
		t.Errorf("mult hw options = %d, want 1", len(d.Nodes[1].HW))
	}
}

func TestString(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
	})
	s := d.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String too short: %q", s)
	}
}

func TestDOTOutput(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		b.Load(isa.OpLW, prog.T2, prog.SP, 0)
	})
	var buf bytes.Buffer
	d.DOT(&buf, graph.NodeSetOf(d.Len(), 0, 1))
	s := buf.String()
	for _, frag := range []string{"digraph", "cluster_ise0", "n0 -> n1", "xor $t1, $t0, $a0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, s)
		}
	}
	// Ineligible load rendered grayed, outside the cluster.
	if !strings.Contains(s, "color=gray50") {
		t.Error("ineligible node not grayed")
	}
}

func TestReachesAndInterlocked(t *testing.T) {
	d := buildBlock(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // n0
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0) // n1 <- n0
		b.R(isa.OpOR, prog.T2, prog.T1, prog.A1)  // n2 <- n1
		b.R(isa.OpAND, prog.T3, prog.A2, prog.A3) // n3 independent
	})
	a := graph.NodeSetOf(d.Len(), 0)
	b := graph.NodeSetOf(d.Len(), 2)
	if !d.Reaches(a, b) {
		t.Error("n0 should reach n2")
	}
	if d.Reaches(b, a) {
		t.Error("n2 should not reach n0")
	}
	if d.Interlocked(a, b) {
		t.Error("one-way dependence flagged as interlock")
	}
	// Interlock: {n0, n2} vs {n1}: n0->n1 and n1->n2.
	x := graph.NodeSetOf(d.Len(), 0, 2)
	y := graph.NodeSetOf(d.Len(), 1)
	if !d.Interlocked(x, y) {
		t.Error("mutual dependence not detected")
	}
	iso := graph.NodeSetOf(d.Len(), 3)
	if d.Reaches(iso, a) || d.Reaches(a, iso) {
		t.Error("independent node reaches")
	}
}
