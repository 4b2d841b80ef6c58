package core

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
)

// newExplorer builds an explorer with initialized tables for direct testing
// of the algorithm's internals.
func newExplorer(t testing.TB, d *dfg.DFG, cfg machine.Config) *explorer {
	t.Helper()
	e := &explorer{}
	e.reset(d, cfg, DefaultParams(), aco.NewRand(1), nil, nil, nil, nil, 0)
	e.bind()
	e.tab.Seed(e.d, e.p.Coefs())
	return e
}

// fakeWalk fabricates a walk result with the given per-node choices (true =
// first hardware option) and a given critical set.
func fakeWalk(e *explorer, hw []bool, critical graph.NodeSet, tet int) *walkResult {
	n := e.d.Len()
	res := &walkResult{
		tet:      tet,
		chosen:   make([]int, n),
		orderPos: make([]int, n),
		groupOf:  make([]int, n),
		depthNS:  make([]float64, n),
		critical: critical,
	}
	for i := 0; i < n; i++ {
		res.groupOf[i] = -1
		if i < len(hw) && hw[i] && len(e.d.Nodes[i].HW) > 0 {
			res.chosen[i] = e.tab.NumSW[i] // first hardware option
		} else {
			res.chosen[i] = 0 // first software option
		}
	}
	return res
}

func TestMeritCase1CriticalBoost(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1) // n0 critical
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0) // n1 critical
		b.R(isa.OpOR, prog.T2, prog.A2, prog.A3)  // n2 off-critical
	})
	e := newExplorer(t, d, machine.New(2, 4, 2))
	// Everything hardware so case 4 applies to n0/n1 and n2 stays singleton.
	res := fakeWalk(e, []bool{true, true, false}, graph.NodeSetOf(d.Len(), 0, 1), 3)
	before0 := e.tab.Merit[0][e.tab.NumSW[0]] / e.tab.Merit[0][0] // hw/sw ratio
	before2 := e.tab.Merit[2][e.tab.NumSW[2]] / e.tab.Merit[2][0]
	e.meritUpdate(res)
	after0 := e.tab.Merit[0][e.tab.NumSW[0]] / e.tab.Merit[0][0]
	after2 := e.tab.Merit[2][e.tab.NumSW[2]] / e.tab.Merit[2][0]
	// The critical chain node's hardware preference must strengthen more
	// than the off-critical singleton's (which is βSize-damped).
	if after0/before0 <= after2/before2 {
		t.Errorf("critical hw ratio gain %.3f not above off-critical %.3f",
			after0/before0, after2/before2)
	}
}

func TestMeritCase2SingletonDamped(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
	})
	e := newExplorer(t, d, machine.New(2, 4, 2))
	res := fakeWalk(e, []bool{false}, graph.NewNodeSet(d.Len()), 1)
	before := e.tab.Merit[0][e.tab.NumSW[0]] / e.tab.Merit[0][0]
	e.meritUpdate(res)
	after := e.tab.Merit[0][e.tab.NumSW[0]] / e.tab.Merit[0][0]
	if after >= before {
		t.Errorf("singleton hw/sw ratio rose: %.3f -> %.3f", before, after)
	}
}

func TestMeritCase3PortViolationDamped(t *testing.T) {
	// Five independent 2-input adds all chosen hardware: the virtual
	// subgraph of any one of them (all connected via a reduction) would
	// need too many read ports on a 4-port machine.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpADD, prog.T1, prog.A2, prog.A3)
		b.R(isa.OpADD, prog.T2, prog.S0, prog.S1)
		b.R(isa.OpADD, prog.T3, prog.T0, prog.T1)
		b.R(isa.OpADD, prog.T4, prog.T3, prog.T2)
	})
	e := newExplorer(t, d, machine.New(2, 4, 2))
	res := fakeWalk(e, []bool{true, true, true, true, true}, graph.NewNodeSet(d.Len()), 3)
	vs := e.virtualSubgraphReference(res, 4)
	if vs.Len() != 5 {
		t.Fatalf("virtual subgraph size %d, want 5", vs.Len())
	}
	if d.In(vs) <= 4 {
		t.Skip("test premise broken: subgraph fits ports")
	}
	before := e.tab.Merit[4][e.tab.NumSW[4]] / e.tab.Merit[4][0]
	e.meritUpdate(res)
	after := e.tab.Merit[4][e.tab.NumSW[4]] / e.tab.Merit[4][0]
	if after >= before {
		t.Errorf("port-violating hw/sw ratio rose: %.3f -> %.3f", before, after)
	}
}

func TestMeritCase4PrefersCheaperEqualSpeed(t *testing.T) {
	// A two-node chain of adds: both add options (ripple 4.04 ns, cla
	// 2.12 ns) give a 1-cycle subgraph, so the cheaper ripple cell must end
	// up with the higher merit among hardware options.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpADD, prog.T1, prog.T0, prog.A0)
	})
	e := newExplorer(t, d, machine.New(2, 4, 2))
	res := fakeWalk(e, []bool{true, true}, graph.NodeSetOf(d.Len(), 0, 1), 2)
	e.meritUpdate(res)
	slow := e.tab.Merit[0][e.tab.NumSW[0]]   // hw-ripple
	fast := e.tab.Merit[0][e.tab.NumSW[0]+1] // hw-cla
	if slow <= fast {
		t.Errorf("equal-speed options: cheap %.2f not preferred over large %.2f", slow, fast)
	}
}

func TestVirtualSubgraphFollowsHWChoices(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1) // n0 hw
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0) // n1 sw (breaks the chain)
		b.R(isa.OpOR, prog.T2, prog.T1, prog.A1)  // n2 hw
	})
	e := newExplorer(t, d, machine.New(2, 4, 2))
	res := fakeWalk(e, []bool{true, false, true}, graph.NewNodeSet(d.Len()), 3)
	e.labelComponents(res)
	for _, vs := range []graph.NodeSet{e.labelledVS(0), e.virtualSubgraphReference(res, 0)} {
		if vs.Len() != 1 || !vs.Contains(0) {
			t.Errorf("vS(0) = %v, want {0} (chain broken by software n1)", vs)
		}
	}
	if vs := e.labelledVS(1); vs.Len() != 3 {
		t.Errorf("vS(1) = %v, want n1 with both hardware neighbours", vs)
	}
	res2 := fakeWalk(e, []bool{true, true, true}, graph.NewNodeSet(d.Len()), 3)
	e.labelComponents(res2)
	for _, vs := range []graph.NodeSet{e.labelledVS(0), e.virtualSubgraphReference(res2, 0)} {
		if vs.Len() != 3 {
			t.Errorf("vS(0) = %v, want all three", vs)
		}
	}
}

func TestTrailUpdateRules(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
	})
	e := newExplorer(t, d, machine.New(2, 4, 2))
	res := fakeWalk(e, []bool{true}, graph.NewNodeSet(d.Len()), 1)
	hwIdx, swIdx := e.tab.NumSW[0], 0

	// Improving iteration: selected +ρ1, unselected -ρ2 (clamped at 0).
	e.trailUpdate(res, true, nil)
	if e.tab.Trail[0][hwIdx] != e.p.Rho1 {
		t.Errorf("selected trail = %v, want %v", e.tab.Trail[0][hwIdx], e.p.Rho1)
	}
	if e.tab.Trail[0][swIdx] != 0 {
		t.Errorf("unselected trail = %v, want 0 (clamped)", e.tab.Trail[0][swIdx])
	}
	// Worsening iteration: selected -ρ3, unselected +ρ4.
	e.trailUpdate(res, false, nil)
	if got := e.tab.Trail[0][hwIdx]; got != e.p.Rho1-e.p.Rho3 {
		t.Errorf("selected trail after worsening = %v", got)
	}
	if got := e.tab.Trail[0][swIdx]; got != e.p.Rho4 {
		t.Errorf("unselected trail after worsening = %v", got)
	}
	// Order-moved-earlier penalty ρ5 applies to all options.
	prev := make([]int, d.Len())
	for i := range prev {
		prev[i] = 5
	}
	res.orderPos[0] = 2
	before := [2]float64{e.tab.Trail[0][0], e.tab.Trail[0][1]}
	e.trailUpdate(res, false, prev)
	if e.tab.Trail[0][hwIdx] != max0(before[1]-e.p.Rho3-e.p.Rho5) {
		t.Errorf("rho5 not applied to selected: %v", e.tab.Trail[0][hwIdx])
	}
	if e.tab.Trail[0][swIdx] != max0(before[0]+e.p.Rho4-e.p.Rho5) {
		t.Errorf("rho5 not applied to unselected: %v", e.tab.Trail[0][swIdx])
	}
}

func max0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

func TestTryPackRespectsPipestage(t *testing.T) {
	// Chain of four slow xors (4.17 ns): depth 16.7 ns → 2 cycles, fine;
	// with MaxISECycles = 1 only two fit.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpXOR, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T0, prog.T0, prog.A1)
		b.R(isa.OpXOR, prog.T0, prog.T0, prog.A1)
		b.R(isa.OpXOR, prog.T0, prog.T0, prog.A1)
	})
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.MaxISECycles = 1
	r, err := Explore(t.Context(), d, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.ISEs {
		if e.Cycles > 1 {
			t.Errorf("%v exceeds 1-cycle pipestage cap", e)
		}
		if e.Size() > 2 {
			t.Errorf("%v packs more xors than fit 10 ns", e)
		}
	}
}

func TestMobilityWindow(t *testing.T) {
	// Critical chain of 4; a single independent op has mobility 4 (it can
	// sit anywhere), so Max_AEC = 4.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpOR, prog.T2, prog.T1, prog.A1)
		b.R(isa.OpAND, prog.T3, prog.T2, prog.A0)
		b.R(isa.OpADD, prog.T4, prog.A2, prog.A3) // independent
	})
	e := newExplorer(t, d, machine.New(2, 6, 3))
	res := fakeWalk(e, nil, graph.NodeSetOf(d.Len(), 0, 1, 2, 3), 4)
	if got := e.mobility(res, graph.NodeSetOf(d.Len(), 4)); got != 4 {
		t.Errorf("Max_AEC of slack node = %d, want 4", got)
	}
	if got := e.mobility(res, graph.NodeSetOf(d.Len(), 0)); got != 1 {
		t.Errorf("Max_AEC of critical head = %d, want 1", got)
	}
}

// TestVSMeterRebindsAfterPresize: presizing a meter for smaller bounds than
// the DFG it last measured (a pooled explorer handed out under a smaller run's
// Prewarm bounds) must not leave it bound to that DFG with short arenas.
func TestVSMeterRebindsAfterPresize(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	chosen := make([]int, d.Len())
	numSW := make([]int, d.Len())
	vs := graph.NewNodeSet(d.Len())
	var members []int
	for _, v := range d.Topo() {
		numSW[v] = len(d.Nodes[v].SW)
		chosen[v] = numSW[v] // first hardware option
		if len(d.Nodes[v].HW) > 0 {
			vs.Add(v)
			members = append(members, v)
		}
	}
	var m VSMeter
	want := m.Delay(d, vs, members, chosen, numSW)
	m.presize(1, 0, 1)
	if got := m.Delay(d, vs, members, chosen, numSW); got != want {
		t.Fatalf("delay after presize = %v, want %v", got, want)
	}
}
