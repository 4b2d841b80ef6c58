package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aco"
	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/sched"
)

// meritUpdateReference is meritUpdate with vSx built and measured for every
// operation on its own, with its own full sweep per option: the legality-only
// merit as the baseline computed it before it shared core.VSMeter.
func (e *siExplorer) meritUpdateReference(chosen []int) {
	d := e.d
	for x := 0; x < d.Len(); x++ {
		if e.fixedGroupOf[x] >= 0 {
			continue
		}
		node := d.Nodes[x]
		for i := 0; i < e.tab.NumSW[x]; i++ {
			e.tab.Merit[x][i] *= float64(node.SW[i].Cycles)
		}
		if len(node.HW) > 0 {
			e.hwMeritReference(chosen, x)
		}
		aco.Normalize(e.tab.Merit[x], 100*float64(len(e.tab.Merit[x])))
	}
}

func (e *siExplorer) hwMeritReference(chosen []int, x int) {
	d := e.d
	p := e.p
	hw := d.Nodes[x].HW
	base := e.tab.NumSW[x]

	e.ungroupedVS(x)
	if g := e.groupOf[x]; g >= 0 {
		e.addGroupMembers(g)
	}
	vs := e.vsSet
	if vs.Len() == 1 {
		for j := range hw {
			e.tab.Merit[x][base+j] *= p.BetaSize
		}
		return
	}
	violated := false
	if e.d.InScratch(vs, &e.io) > e.cfg.ReadPorts || e.d.OutScratch(vs, &e.io) > e.cfg.WritePorts {
		for j := range hw {
			e.tab.Merit[x][base+j] *= p.BetaIO
		}
		violated = true
	}
	if !d.IsConvex(vs) {
		for j := range hw {
			e.tab.Merit[x][base+j] *= p.BetaConvex
		}
		violated = true
	}
	if violated {
		return
	}
	members := vs.AppendValues(nil)
	d.SortTopo(members)
	minCycles, maxArea := 1<<30, 0.0
	cyc := make([]int, len(hw))
	area := make([]float64, len(hw))
	for j := range hw {
		dly, a := e.vsMetricsReference(vs, members, chosen, x, j)
		cyc[j] = sched.CyclesForDelay(dly)
		area[j] = a
		if cyc[j] < minCycles {
			minCycles = cyc[j]
		}
		if a > maxArea {
			maxArea = a
		}
	}
	for j := range hw {
		m := &e.tab.Merit[x][base+j]
		if p.MaxISECycles > 0 && cyc[j] > p.MaxISECycles {
			*m *= p.BetaIO
			continue
		}
		saving := vs.Len() - cyc[j]
		switch {
		case saving > 0:
			*m *= float64(1 + saving)
		case saving < 0:
			*m /= float64(1 - saving)
		}
		if cyc[j] == minCycles {
			if area[j] > 0 {
				*m *= maxArea / area[j]
			}
		} else {
			*m /= float64(1 + cyc[j] - minCycles)
		}
	}
}

// vsMetricsReference measures subgraph vs's combinational depth and area in
// one sweep over its members, which must be in topological order, with x at
// hardware option hwIdx and every other member at its chosen option.
func (e *siExplorer) vsMetricsReference(vs graph.NodeSet, members []int, chosen []int, x, hwIdx int) (delayNS, areaUM2 float64) {
	d := e.d
	depth := make([]float64, d.Len())
	for _, v := range members {
		j := hwIdx
		if v != x {
			j = chosen[v] - e.tab.NumSW[v]
			if j < 0 {
				j = 0 // member chose software; assume its first cell
			}
		}
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		depth[v] = in + d.Nodes[v].HW[j].DelayNS
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += d.Nodes[v].HW[j].AreaUM2
	}
	return delayNS, areaUM2
}

// serialCyclesReference is serialCycles with each group's delay from its own
// depth sweep, reading predecessors through groupOf.
func (e *siExplorer) serialCyclesReference() int {
	e.buildGroups()
	chosen := e.chosen
	cycles, counted := 0, 0
	for _, f := range e.fixed {
		cycles += f.Cycles
		counted += f.Nodes.Len()
	}
	depth := make([]float64, e.d.Len())
	for g := 0; g < len(e.groupStart)-1; g++ {
		members := e.groupNodes[e.groupStart[g]:e.groupStart[g+1]]
		delay := 0.0
		for _, v := range members {
			in := 0.0
			for _, p := range e.d.G.Preds(v) {
				if e.groupOf[p] == g && depth[p] > in {
					in = depth[p]
				}
			}
			depth[v] = in + e.d.Nodes[v].HW[chosen[v]-e.tab.NumSW[v]].DelayNS
			delay = max(delay, depth[v])
		}
		cycles += sched.CyclesForDelay(delay)
		counted += len(members)
	}
	return cycles + e.d.Len() - counted
}

// TestMeritUpdateMatchesReference drives the SI baseline's per-group merit
// sweep and the per-node reference side by side from identical state, over the seven
// kernels' O3 hot blocks and random blocks on every paper machine (tight and
// wide register ports), with and without accepted ISEs: every iteration must
// draw the same options, count the same serial cycles and leave
// bit-identical tables.
func TestMeritUpdateMatchesReference(t *testing.T) {
	var dfgs []*dfg.DFG
	for _, name := range bench.Names() {
		dfgs = append(dfgs, hotBenchDFG(t, name, "O3"))
	}
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 6; i++ {
		dfgs = append(dfgs, randprog.DFG(r, randprog.Config{
			Ops:      10 + r.Intn(50),
			MemFrac:  r.Float64() * 0.25,
			MultFrac: r.Float64() * 0.15,
		}))
	}
	for _, cfg := range machine.Configs() {
		for i, d := range dfgs {
			checkMeritUpdate(t, d, cfg, i)
		}
	}
}

func checkMeritUpdate(t *testing.T, d *dfg.DFG, cfg machine.Config, i int) {
	p := FastParams()
	res, err := ExploreSI(t.Context(), d, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fixed := range [][]*ISE{nil, res.ISEs} {
		label := fmt.Sprintf("%d:%s/%s/fixed=%d", i, d.Name, cfg.Name, len(fixed))
		mk := func() *siExplorer {
			e := &siExplorer{}
			e.reset(d, cfg, p, aco.NewRand(int64(100+i)), nil, nil, nil, nil, 0)
			for _, f := range fixed {
				e.fix(f)
			}
			e.tab.Seed(e.d, e.p.Coefs())
			return e
		}
		a, b := mk(), mk()
		tetOld := 1 << 30
		for it := 0; it < 40; it++ {
			a.selectOptions()
			b.selectOptions()
			if !reflect.DeepEqual(a.chosen, b.chosen) {
				t.Fatalf("%s iter %d: option draws differ", label, it)
			}
			tet := a.serialCycles()
			if tb := b.serialCyclesReference(); tb != tet {
				t.Fatalf("%s iter %d: serial cycles %d vs reference %d", label, it, tet, tb)
			}
			improved := tet <= tetOld
			if improved {
				tetOld = tet
			}
			a.trailUpdate(improved)
			b.trailUpdate(improved)
			a.meritUpdate()
			b.meritUpdateReference(b.chosen)
			if !sameBits(a.tab.Merit, b.tab.Merit) || !sameBits(a.tab.Trail, b.tab.Trail) {
				t.Fatalf("%s iter %d: tables differ from reference after meritUpdate", label, it)
			}
		}
	}
}
