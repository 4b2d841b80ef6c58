package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/sched"
)

// sweepReference measures vs from scratch, members in topological order,
// with members[k] at hardware option hwIdx and every other member at its
// chosen option (the first one for a member that chose software).
func sweepReference(d *dfg.DFG, vs graph.NodeSet, members, chosen, numSW []int, k, hwIdx int) (areaUM2 float64, cycles int) {
	depth := make([]float64, d.Len())
	delayNS := 0.0
	for i, v := range members {
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		o := max(chosen[v]-numSW[v], 0)
		if i == k {
			o = hwIdx
		}
		hw := d.Nodes[v].HW[o]
		depth[v] = in + hw.DelayNS
		delayNS = max(delayNS, depth[v])
		areaUM2 += hw.AreaUM2
	}
	return areaUM2, sched.CyclesForDelay(delayNS)
}

// TestVSMeterMetricsMatchesSweep measures random legal vSx of the paper
// kernels' hot blocks and of random blocks, members at random chosen
// options, and checks metrics(k, j) against a from-scratch sweep for every
// position k and hardware option j, the held options included, in a random
// order so resumed sweeps, restored depths and unswept held options
// interleave. Half the random blocks offer an option with the held one's
// delay but not its area, which must be swept.
func TestVSMeterMetricsMatchesSweep(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	var dfgs []*dfg.DFG
	for _, name := range bench.Names() {
		dfgs = append(dfgs, hotBenchDFG(t, name, "O3"))
	}
	for i := 0; i < 20; i++ {
		d := randprog.DFG(r, randprog.Config{Ops: 10 + r.Intn(50), MemFrac: 0.1, MultFrac: 0.1})
		if i%2 == 1 {
			// A twin of the first hardware option: the same delay at twice
			// the area, which the option table itself never offers.
			for _, n := range d.Nodes {
				if len(n.HW) > 0 {
					twin := n.HW[0]
					twin.AreaUM2 *= 2
					n.HW = append(slices.Clip(n.HW), twin)
				}
			}
		}
		dfgs = append(dfgs, d)
	}
	cfg := machine.New(4, 16, 8)
	var m VSMeter
	var io dfg.IOScratch
	legal, held, swept := 0, 0, 0
	for _, d := range dfgs {
		numSW := make([]int, d.Len())
		chosen := make([]int, d.Len())
		for v, n := range d.Nodes {
			numSW[v] = len(n.SW)
		}
		for trial := 0; trial < 40; trial++ {
			for v, n := range d.Nodes {
				chosen[v] = r.Intn(len(n.SW) + len(n.HW))
			}
			vs := growEligible(r, d, 2+r.Intn(8))
			if !m.Measure(d, &cfg, vs, nil, chosen, numSW, &io) {
				continue
			}
			legal++
			members := m.Members()
			type pair struct{ k, j int }
			var pairs []pair
			for k, v := range members {
				for j := range d.Nodes[v].HW {
					pairs = append(pairs, pair{k, j})
				}
			}
			r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
			for _, p := range pairs {
				area, cyc := m.metrics(p.k, p.j)
				wantArea, wantCyc := sweepReference(d, vs, members, chosen, numSW, p.k, p.j)
				if math.Float64bits(area) != math.Float64bits(wantArea) || cyc != wantCyc {
					t.Fatalf("%s vSx %v: metrics(%d, %d) = %v µm², %d cycles; sweep %v µm², %d cycles",
						d.Name, vs, p.k, p.j, area, cyc, wantArea, wantCyc)
				}
				if v := members[p.k]; p.j == max(chosen[v]-numSW[v], 0) {
					held++
				} else {
					swept++
				}
			}
		}
	}
	t.Logf("%d legal vSx, %d held-option and %d other-option measures", legal, held, swept)
	if legal < 100 || held == 0 || swept == 0 {
		t.Fatalf("%d legal vSx, %d held and %d other options measured; the test no longer covers both paths", legal, held, swept)
	}
}

// growEligible grows a connected set of up to size nodes with hardware
// options from a random one, following dataflow edges either way.
func growEligible(r *rand.Rand, d *dfg.DFG, size int) graph.NodeSet {
	s := graph.NewNodeSet(d.Len())
	var hw []int
	for v, n := range d.Nodes {
		if len(n.HW) > 0 {
			hw = append(hw, v)
		}
	}
	if len(hw) == 0 {
		return s
	}
	s.Add(hw[r.Intn(len(hw))])
	for s.Len() < size {
		var frontier []int
		for _, v := range s.Values() {
			for _, nbrs := range [][]int{d.G.Succs(v), d.G.Preds(v)} {
				for _, u := range nbrs {
					if len(d.Nodes[u].HW) > 0 && !s.Contains(u) {
						frontier = append(frontier, u)
					}
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		s.Add(frontier[r.Intn(len(frontier))])
	}
	return s
}
