package core

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/sched"
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

// logicChain emits k dependent fast-logic operations (and/xor/or cycle) —
// several of them fit one 10 ns ASFU stage, so packing pays off.
func logicChain(b *prog.Builder, k int) {
	ops := []isa.Opcode{isa.OpAND, isa.OpXOR, isa.OpOR}
	b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
	for i := 1; i < k; i++ {
		b.R(ops[i%3], prog.T0, prog.T0, prog.A1)
	}
}

// checkResult asserts structural soundness of an exploration result.
func checkResult(t *testing.T, d *dfg.DFG, cfg machine.Config, r *Result) {
	t.Helper()
	if err := r.Assignment.Validate(d); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	for _, e := range r.ISEs {
		if e.Size() < 2 {
			t.Errorf("%v: fewer than 2 members", e)
		}
		if !d.IsConvex(e.Nodes) {
			t.Errorf("%v: not convex", e)
		}
		if !d.AllEligible(e.Nodes) {
			t.Errorf("%v: ineligible member", e)
		}
		if e.In > cfg.ReadPorts || e.Out > cfg.WritePorts {
			t.Errorf("%v: ports exceed machine %d/%d", e, cfg.ReadPorts, cfg.WritePorts)
		}
		if e.Cycles < 1 || e.AreaUM2 <= 0 || e.DelayNS <= 0 {
			t.Errorf("%v: nonsense metrics", e)
		}
	}
	// ISEs must be pairwise disjoint.
	seen := graph.NewNodeSet(d.Len())
	for _, e := range r.ISEs {
		for _, v := range e.Nodes.Values() {
			if seen.Contains(v) {
				t.Errorf("node %d in two ISEs", v)
			}
			seen.Add(v)
		}
	}
	// The reported final length must be reproducible.
	s, err := sched.ListSchedule(d, r.Assignment, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length != r.FinalCycles {
		t.Errorf("FinalCycles %d, reschedule says %d", r.FinalCycles, s.Length)
	}
}

func TestExploreLogicChainImproves(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 9) })
	cfg := machine.New(2, 4, 2)
	r, err := Explore(t.Context(), d, cfg, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, cfg, r)
	if len(r.ISEs) == 0 {
		t.Fatal("no ISE found on a 9-op dependent logic chain")
	}
	if r.FinalCycles >= r.BaseCycles {
		t.Fatalf("no improvement: base %d, final %d", r.BaseCycles, r.FinalCycles)
	}
	if r.Reduction() <= 0 || r.Reduction() >= 1 {
		t.Fatalf("Reduction = %v out of range", r.Reduction())
	}
}

// TestExploreMotivatingExample rebuilds the shape of Fig. 4.0.1/4.0.2: two
// parallel dependence chains joined at both ends, on a 2-issue machine.
// Exploration must compress the chains with ISEs.
func TestExploreMotivatingExample(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // n0 (paper op 1)
		// Left chain: 2 -> 3 -> 5.
		b.R(isa.OpAND, prog.T1, prog.T0, prog.A0) // n1
		b.R(isa.OpXOR, prog.T2, prog.T1, prog.A1) // n2
		b.R(isa.OpOR, prog.T3, prog.T2, prog.A0)  // n3
		// Right chain: 4 -> {6,7} -> 8.
		b.R(isa.OpADD, prog.T4, prog.T0, prog.A2) // n4
		b.R(isa.OpAND, prog.T5, prog.T4, prog.A0) // n5
		b.R(isa.OpXOR, prog.T6, prog.T4, prog.A1) // n6
		b.R(isa.OpOR, prog.T7, prog.T5, prog.T6)  // n7
		// Join.
		b.R(isa.OpADD, prog.V0, prog.T3, prog.T7) // n8
	})
	cfg := machine.New(2, 4, 2)
	r, err := Explore(t.Context(), d, cfg, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, cfg, r)
	if r.FinalCycles >= r.BaseCycles {
		t.Fatalf("motivating example not improved: base %d final %d", r.BaseCycles, r.FinalCycles)
	}
}

func TestExploreDeterministic(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 8) })
	cfg := machine.New(2, 6, 3)
	p := FastParams()
	a, err := Explore(t.Context(), d, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(t.Context(), d, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalCycles != b.FinalCycles || len(a.ISEs) != len(b.ISEs) {
		t.Fatalf("same seed, different results: %d/%d ISEs, %d/%d cycles",
			len(a.ISEs), len(b.ISEs), a.FinalCycles, b.FinalCycles)
	}
	for i := range a.ISEs {
		if !a.ISEs[i].Nodes.Equal(b.ISEs[i].Nodes) {
			t.Fatalf("ISE %d differs: %v vs %v", i, a.ISEs[i], b.ISEs[i])
		}
	}
}

func TestExploreNoEligibleOps(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.Load(isa.OpLW, prog.T0, prog.SP, 0)
		b.Load(isa.OpLW, prog.T1, prog.SP, 4)
		b.Store(isa.OpSW, prog.T0, prog.SP, 8)
	})
	cfg := machine.New(2, 4, 2)
	r, err := Explore(t.Context(), d, cfg, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ISEs) != 0 {
		t.Fatalf("found ISEs among loads/stores: %v", r.ISEs)
	}
	if r.FinalCycles != r.BaseCycles {
		t.Fatalf("cycles changed without ISEs: %d -> %d", r.BaseCycles, r.FinalCycles)
	}
}

func TestExploreRespectsPortConstraint(t *testing.T) {
	// Many independent 2-input ops feeding one reduction: any large ISE
	// would need too many read ports on the narrow machine.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpADD, prog.T1, prog.A2, prog.A3)
		b.R(isa.OpADD, prog.T2, prog.S0, prog.S1)
		b.R(isa.OpADD, prog.T3, prog.S2, prog.S3)
		b.R(isa.OpADD, prog.T4, prog.T0, prog.T1)
		b.R(isa.OpADD, prog.T5, prog.T2, prog.T3)
		b.R(isa.OpADD, prog.V0, prog.T4, prog.T5)
	})
	cfg := machine.New(2, 4, 2)
	r, err := Explore(t.Context(), d, cfg, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, cfg, r)
}

func TestExploreEmptyDFG(t *testing.T) {
	d := &dfg.DFG{Name: "empty", G: graph.New(0), Data: graph.New(0)}
	if _, err := Explore(t.Context(), d, machine.New(2, 4, 2), FastParams()); err == nil {
		t.Fatal("empty DFG accepted")
	}
}

func TestExploreInvalidMachine(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 3) })
	bad := machine.New(2, 4, 2)
	bad.IssueWidth = 0
	if _, err := Explore(t.Context(), d, bad, FastParams()); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestMakeConvexSplitsViolation(t *testing.T) {
	// Chain n0 -> n1 -> n2 where n1 is a load: {n0, n2} is non-convex.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.Load(isa.OpLW, prog.T1, prog.T0, 0)
		b.R(isa.OpADD, prog.T2, prog.T1, prog.A0)
	})
	s := graph.NodeSetOf(d.Len(), 0, 2)
	parts := MakeConvex(d, s)
	if len(parts) != 2 {
		t.Fatalf("makeConvex -> %d parts, want 2", len(parts))
	}
	for _, p := range parts {
		if !d.IsConvex(p) {
			t.Errorf("part %v not convex", p)
		}
		if p.Len() != 1 {
			t.Errorf("part %v should be a singleton", p)
		}
	}
	// A convex set passes through unchanged.
	conv := graph.NodeSetOf(d.Len(), 0, 1)
	parts = MakeConvex(d, conv)
	if len(parts) != 1 || !parts[0].Equal(conv) {
		t.Fatalf("convex set split: %v", parts)
	}
}

func TestTrimPortsReducesDemand(t *testing.T) {
	// Four independent adds: 8 external inputs. Trimming to 4 read ports
	// must drop members until IN ≤ 4.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpADD, prog.T1, prog.A2, prog.A3)
		b.R(isa.OpADD, prog.T2, prog.S0, prog.S1)
		b.R(isa.OpADD, prog.T3, prog.S2, prog.S3)
	})
	s := graph.NodeSetOf(d.Len(), 0, 1, 2, 3)
	trimmed := TrimPorts(d, s, 4, 2, new(dfg.IOScratch))
	if trimmed.Len() == 0 {
		t.Fatal("trimmed to nothing")
	}
	if d.In(trimmed) > 4 || d.Out(trimmed) > 2 {
		t.Fatalf("trimmed set still demands %d/%d ports", d.In(trimmed), d.Out(trimmed))
	}
	// Already-feasible sets are untouched.
	ok := graph.NodeSetOf(d.Len(), 0)
	if got := TrimPorts(d, ok, 4, 2, new(dfg.IOScratch)); !got.Equal(ok) {
		t.Fatalf("feasible set modified: %v", got)
	}
}

func TestWalkProducesCompleteValidSchedule(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 6) })
	cfg := machine.New(2, 4, 2)
	e := &explorer{}
	e.reset(d, cfg, FastParams(), aco.NewRand(7), nil, nil, nil, nil, 0)
	e.bind()
	e.tab.Seed(e.d, e.p.Coefs())
	for trial := 0; trial < 20; trial++ {
		res := e.walk()
		if res.tet < 1 {
			t.Fatal("empty schedule")
		}
		// Every free node chose exactly one option.
		for x := 0; x < d.Len(); x++ {
			if res.chosen[x] < 0 {
				t.Fatalf("trial %d: node %d unassigned", trial, x)
			}
		}
		// Chain dependence: TET must be at least the compressed chain bound.
		if res.tet < 2 {
			t.Fatalf("trial %d: tet %d impossibly small", trial, res.tet)
		}
		if res.critical.Empty() {
			t.Fatalf("trial %d: no critical nodes", trial)
		}
	}
}

// TestGoldenCRCBitStep pins the canonical result on the paper's home
// territory: exploring the CRC bit-step block on a 2-issue 4/2 machine must
// pack the full five-operation mask/shift/xor chain into one single-cycle
// ISE with two reads and one write, choosing the fast subtractor so the
// chain fits the 10 ns pipestage.
func TestGoldenCRCBitStep(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.I(isa.OpANDI, prog.T1, prog.S3, 1)
		b.R(isa.OpSUB, prog.T2, prog.Zero, prog.T1)
		b.I(isa.OpSRL, prog.T3, prog.S3, 1)
		b.R(isa.OpAND, prog.T2, prog.S2, prog.T2)
		b.R(isa.OpXOR, prog.S3, prog.T3, prog.T2)
		b.I(isa.OpADDI, prog.T4, prog.T4, -1) // loop bookkeeping
	})
	cfg := machine.New(2, 4, 2)
	r, err := Explore(t.Context(), d, cfg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ISEs) != 1 {
		t.Fatalf("ISEs = %d, want 1: %v", len(r.ISEs), r.ISEs)
	}
	e := r.ISEs[0]
	if !e.Nodes.Equal(graph.NodeSetOf(d.Len(), 0, 1, 2, 3, 4)) {
		t.Fatalf("members = %v, want the 5-op chain", e.Nodes)
	}
	if e.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", e.Cycles)
	}
	// Two reads (crc in $s3, poly in $s2); in this standalone block the xor
	// result dies at the halt, so OUT(S) is 0 (in the real loop it is 1).
	if e.In != 2 || e.Out != 0 {
		t.Fatalf("ports = %d/%d, want 2/0", e.In, e.Out)
	}
	// The sub must use the carry-lookahead cell: ripple would blow the
	// pipestage (11.37 ns > 10 ns).
	if got := d.Nodes[1].HW[e.Option[1]].Name; got != "hw-cla" {
		t.Fatalf("sub cell = %s, want hw-cla", got)
	}
	if e.DelayNS >= 10 {
		t.Fatalf("delay %.2f ns does not fit the pipestage", e.DelayNS)
	}
}
