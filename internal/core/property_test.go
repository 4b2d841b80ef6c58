package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/sched"
)

// tinyParams keeps random-DFG exploration cheap while exercising every code
// path.
func tinyParams() Params {
	p := DefaultParams()
	p.MaxIterations = 8
	p.Restarts = 1
	p.MaxRounds = 4
	return p
}

// TestPropertyExploreInvariants explores random DFGs on random machines and
// checks every structural invariant of the result, including schedule
// feasibility via the independent oracle.
func TestPropertyExploreInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	machines := machine.Configs()
	for trial := 0; trial < 40; trial++ {
		d := randprog.DFG(r, randprog.Config{
			Ops:      3 + r.Intn(30),
			MemFrac:  r.Float64() * 0.3,
			MultFrac: r.Float64() * 0.15,
		})
		cfg := machines[r.Intn(len(machines))]
		p := tinyParams()
		p.Seed = int64(trial)
		res, err := Explore(t.Context(), d, cfg, p)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, d)
		}
		if res.FinalCycles > res.BaseCycles {
			t.Errorf("trial %d: exploration made block slower: %d -> %d", trial, res.BaseCycles, res.FinalCycles)
		}
		if err := res.Assignment.Validate(d); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		s, err := sched.ListSchedule(d, res.Assignment, cfg)
		if err != nil {
			t.Fatalf("trial %d: reschedule: %v", trial, err)
		}
		if err := sched.Verify(d, res.Assignment, cfg, s); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		seen := graph.NewNodeSet(d.Len())
		for _, e := range res.ISEs {
			if e.Size() < 2 {
				t.Errorf("trial %d: singleton ISE %v", trial, e)
			}
			if p.MaxISECycles > 0 && e.Cycles > p.MaxISECycles {
				t.Errorf("trial %d: %v exceeds pipestage cap %d", trial, e, p.MaxISECycles)
			}
			if e.In > cfg.ReadPorts || e.Out > cfg.WritePorts {
				t.Errorf("trial %d: %v exceeds ports", trial, e)
			}
			if !seen.Intersect(e.Nodes).Empty() {
				t.Errorf("trial %d: overlapping ISEs", trial)
			}
			seen = seen.Union(e.Nodes)
		}
	}
}

// TestPropertySavingCyclesConsistent: the sum of recorded marginal savings
// equals the total improvement.
func TestPropertySavingCyclesConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	cfg := machine.New(2, 4, 2)
	for trial := 0; trial < 25; trial++ {
		d := randprog.DFG(r, randprog.Config{Ops: 5 + r.Intn(25)})
		p := tinyParams()
		p.Seed = int64(trial)
		res, err := Explore(t.Context(), d, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, e := range res.ISEs {
			if e.SavingCycles < 0 {
				t.Errorf("trial %d: negative saving %d", trial, e.SavingCycles)
			}
			total += e.SavingCycles
		}
		if got := res.BaseCycles - res.FinalCycles; total != got {
			t.Errorf("trial %d: savings sum %d, improvement %d", trial, total, got)
		}
	}
}

// TestPropertyTrimLatencyRespectsCap: random subsets trimmed to any cap obey
// it with first-option delays.
func TestPropertyTrimLatencyRespectsCap(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		d := randprog.DFG(r, randprog.Config{Ops: 5 + r.Intn(30)})
		s := graph.NewNodeSet(d.Len())
		for v := 0; v < d.Len(); v++ {
			if d.Nodes[v].ISEEligible() && r.Intn(2) == 0 {
				s.Add(v)
			}
		}
		if s.Empty() {
			continue
		}
		cap := 1 + r.Intn(3)
		trimmed := TrimLatency(d, s, map[int]int{}, cap)
		if trimmed.Empty() {
			continue
		}
		a := make(sched.Assignment, d.Len())
		for i := range a {
			a[i] = sched.NodeChoice{Kind: sched.KindSW, Opt: 0, Group: -1}
		}
		for _, v := range trimmed.Values() {
			a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: 0, Group: 0}
		}
		if got := sched.CyclesForDelay(sched.GroupDelayNS(d, trimmed, a)); got > cap {
			t.Fatalf("trial %d: trimmed latency %d > cap %d", trial, got, cap)
		}
		if !trimmed.SubsetOf(s) {
			t.Fatalf("trial %d: trim invented nodes", trial)
		}
	}
}

// TestPropertyMakeConvexSound: every piece is convex and the pieces
// partition the input.
func TestPropertyMakeConvexSound(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 80; trial++ {
		d := randprog.DFG(r, randprog.Config{Ops: 4 + r.Intn(25), MemFrac: 0.3})
		s := graph.NewNodeSet(d.Len())
		for v := 0; v < d.Len(); v++ {
			if r.Intn(2) == 0 {
				s.Add(v)
			}
		}
		parts := MakeConvex(d, s)
		var union graph.NodeSet = graph.NewNodeSet(d.Len())
		for _, p := range parts {
			if !d.IsConvex(p) {
				t.Fatalf("trial %d: non-convex piece %v", trial, p)
			}
			if !union.Intersect(p).Empty() {
				t.Fatalf("trial %d: overlapping pieces", trial)
			}
			union = union.Union(p)
		}
		if !union.Equal(s) {
			t.Fatalf("trial %d: pieces %v do not partition %v", trial, union, s)
		}
	}
}
