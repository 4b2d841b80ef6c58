package core

import (
	"fmt"
	"math"
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

// Reference implementations of the explorer's optimized paths, kept as
// test-only code for the differential tests below: the per-step
// Ready-Matrix rebuild over an explicit ready list, hardware packing that
// recounts the grown group's IN and OUT and reads its members from the
// bitmap, the critical path over an explicit contracted graph in Kahn
// order, and the per-node hardware merit that builds vSx by a DFS and
// measures it for every operation with full sweeps.

// walkReference is walk with the Ready-Matrix rebuilt at every step from the
// ready list and hardware options scheduled by scheduleHWReference.
func (e *explorer) walkReference() *walkResult {
	res := e.beginWalk()
	nu := len(e.unitStart) - 1
	var ready []int
	for u := 0; u < nu; u++ {
		if e.indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	for pos := 0; len(ready) > 0; pos++ {
		var entU, entO []int
		var weights []float64
		for _, u := range ready {
			um := e.unitMembers[e.unitStart[u]:e.unitStart[u+1]]
			if len(um) > 1 || e.fixedGroupOf[um[0]] >= 0 {
				entU, entO = append(entU, u), append(entO, -1)
				weights = append(weights, e.p.InitMeritHW)
				continue
			}
			x := um[0]
			for o := range e.tab.Trail[x] {
				w := e.p.Alpha*e.tab.Trail[x][o] + (1-e.p.Alpha)*e.tab.Merit[x][o] + e.p.Lambda*e.sp[x]
				entU, entO = append(entU, u), append(entO, o)
				weights = append(weights, w)
			}
		}
		var pickIdx int
		if e.p.Greedy {
			for i := 1; i < len(weights); i++ {
				if weights[i] > weights[pickIdx] {
					pickIdx = i
				}
			}
		} else {
			pickIdx = aco.SelectWeighted(e.rng, weights)
		}
		u, o := entU[pickIdx], entO[pickIdx]
		if x := e.unitMembers[e.unitStart[u]]; o >= 0 && e.isHWOption(x, o) {
			// A free node is a unit on its own: LTS over all its operands.
			lts, lp := 0, -1
			for _, p := range e.d.G.Preds(x) {
				if e.doneCycle[p] >= lts {
					lts, lp = e.doneCycle[p], p
				}
			}
			e.scheduleHWReference(res, x, o, lts, lp)
			res.orderPos[x] = pos
		} else {
			e.issueUnit(res, u, o, pos)
		}
		e.issued[u] = true
		for i, v := range ready {
			if v == u {
				ready = append(ready[:i:i], ready[i+1:]...)
				break
			}
		}
		for _, b := range e.unitSuccs[e.unitSuccStart[u]:e.unitSuccStart[u+1]] {
			if e.issued[b] {
				continue
			}
			e.indeg[b]--
			if e.indeg[b] == 0 {
				ready = append(ready, b)
			}
		}
	}
	e.finishWalk(res)
	return res
}

// scheduleHWReference is scheduleHW with the group IN and OUT of
// dfg.InScratch and dfg.OutScratch over the grown member set.
func (e *explorer) scheduleHWReference(res *walkResult, x, opt, lts, lp int) {
	delay := e.hwDelay(x, opt)
	if lp >= 0 && res.groupOf[lp] >= 0 && e.tryPackReference(res, &res.groups[res.groupOf[lp]], x, delay) {
		res.chosen[x] = opt
		return
	}
	lat := sched.CyclesForDelay(delay)
	g := e.appendGroup(res)
	g.nodes.Add(x)
	reads, writes := e.d.InScratch(g.nodes, &e.io), e.d.OutScratch(g.nodes, &e.io)
	cts := lts + 1
	for !e.table.FitsNewISE(cts, lat, reads, writes) {
		cts++
	}
	e.table.ReserveNewISE(cts, lat, reads, writes)
	g.cycle, g.lat, g.reads, g.writes, g.delayNS = cts, lat, reads, writes, delay
	res.groupOf[x] = g.index
	res.chosen[x] = opt
	res.depthNS[x] = delay
	e.issueCycle[x] = cts
	e.doneCycle[x] = cts + lat - 1
}

// tryPackReference is tryPack growing the member set in place, recounting
// its IN and OUT, and rolling the set back on failure.
func (e *explorer) tryPackReference(res *walkResult, g *walkGroup, x int, delay float64) bool {
	d := e.d
	c := g.cycle
	for _, p := range d.G.Preds(x) {
		if !g.nodes.Contains(p) && e.doneCycle[p] >= c {
			return false
		}
	}
	depth := 0.0
	for _, p := range d.G.Preds(x) {
		if g.nodes.Contains(p) && res.depthNS[p] > depth {
			depth = res.depthNS[p]
		}
	}
	depth += delay
	newDelay := g.delayNS
	if depth > newDelay {
		newDelay = depth
	}
	newLat := sched.CyclesForDelay(newDelay)
	if e.p.MaxISECycles > 0 && newLat > e.p.MaxISECycles {
		return false
	}
	g.nodes.Add(x)
	newReads, newWrites := d.InScratch(g.nodes, &e.io), d.OutScratch(g.nodes, &e.io)
	if !e.table.FitsISEUpdate(c, g.lat, newLat, g.reads, newReads, g.writes, newWrites) {
		g.nodes.Remove(x)
		return false
	}
	if newLat > g.lat {
		for _, m := range g.nodes.Values() {
			for _, y := range d.Nodes[m].DataSuccs {
				if !g.nodes.Contains(y) && e.doneCycle[y] != 0 && e.issueCycle[y] < c+newLat {
					g.nodes.Remove(x)
					return false
				}
			}
		}
	}
	e.table.UpdateISE(c, g.lat, newLat, g.reads, newReads, g.writes, newWrites)
	g.lat, g.reads, g.writes, g.delayNS = newLat, newReads, newWrites, newDelay
	res.groupOf[x] = g.index
	res.depthNS[x] = depth
	e.issueCycle[x] = c
	for _, m := range g.nodes.Values() {
		e.doneCycle[m] = c + newLat - 1
	}
	return true
}

// virtualSubgraphReference returns vSx by a DFS from x along dependence
// edges in both directions through the free nodes that chose hardware.
func (e *explorer) virtualSubgraphReference(res *walkResult, x int) graph.NodeSet {
	d := e.d
	vs := graph.NodeSetOf(d.Len(), x)
	stack := []int{x}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range append(append([]int(nil), d.G.Succs(v)...), d.G.Preds(v)...) {
			if vs.Contains(nb) || e.fixedGroupOf[nb] >= 0 || !e.choseHW(res, nb) {
				continue
			}
			vs.Add(nb)
			stack = append(stack, nb)
		}
	}
	return vs
}

// labelledVS returns vSx as meritUpdate reads it from labelComponents'
// labels, which must be current for res.
func (e *explorer) labelledVS(x int) graph.NodeSet {
	if c := e.compOf[x]; c >= 0 {
		return e.comps[c]
	}
	return e.softwareVS(x)
}

// criticalNodesReference is criticalNodes over an explicit contracted graph:
// a CSR of the cross-unit edges (duplicates kept) swept in FIFO Kahn order.
// It also reports whether the nodes' issue cycles strictly increase along
// every contracted edge, the property criticalNodes' issue-cycle sweep
// relies on.
func (e *explorer) criticalNodesReference(res *walkResult) (critical graph.NodeSet, issueOrderTopo bool) {
	d := e.d
	n := d.Len()
	finalOf := make([]int, n)
	for i := range finalOf {
		finalOf[i] = -1
	}
	var lats []int
	for gi := range res.groups {
		g := &res.groups[gi]
		for _, v := range g.nodes.Values() {
			finalOf[v] = len(lats)
		}
		lats = append(lats, g.lat)
	}
	for _, f := range e.fixed {
		for _, v := range f.Nodes.Values() {
			finalOf[v] = len(lats)
		}
		lats = append(lats, f.Cycles)
	}
	for i := 0; i < n; i++ {
		if finalOf[i] < 0 {
			lat := 1
			if res.chosen[i] >= 0 && !e.isHWOption(i, res.chosen[i]) {
				lat = d.Nodes[i].SW[res.chosen[i]].Cycles
			}
			finalOf[i] = len(lats)
			lats = append(lats, lat)
		}
	}
	nu := len(lats)
	succs := make([][]int, nu)
	preds := make([][]int, nu)
	issueOrderTopo = true
	for u := 0; u < n; u++ {
		a := finalOf[u]
		for _, v := range d.G.Succs(u) {
			if b := finalOf[v]; a != b {
				succs[a] = append(succs[a], b)
				preds[b] = append(preds[b], a)
				if e.issueCycle[v] <= e.issueCycle[u] {
					issueOrderTopo = false
				}
			}
		}
	}
	indeg := make([]int, nu)
	var order []int
	for m := 0; m < nu; m++ {
		indeg[m] = len(preds[m])
		if indeg[m] == 0 {
			order = append(order, m)
		}
	}
	for qh := 0; qh < len(order); qh++ {
		for _, s := range succs[order[qh]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	down := make([]int, nu)
	up := make([]int, nu)
	best := 0
	for _, m := range order {
		in := 0
		for _, p := range preds[m] {
			if down[p] > in {
				in = down[p]
			}
		}
		down[m] = in + lats[m]
		if down[m] > best {
			best = down[m]
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		m := order[i]
		out := 0
		for _, s := range succs[m] {
			if up[s] > out {
				out = up[s]
			}
		}
		up[m] = out + lats[m]
	}
	critical = graph.NewNodeSet(n)
	for v := 0; v < n; v++ {
		m := finalOf[v]
		if down[m]+up[m]-lats[m] == best {
			critical.Add(v)
		}
	}
	return critical, issueOrderTopo
}

// vsMetricsReference is VSMeter's per-option measure as one sweep over all
// of vs's members, which must be in topological order.
func (e *explorer) vsMetricsReference(res *walkResult, vs graph.NodeSet, members []int, x, hwIdx int) (delayNS, areaUM2 float64, cycles int) {
	d := e.d
	depth := make([]float64, d.Len())
	for _, v := range members {
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		var dl, ar float64
		switch {
		case v == x:
			dl, ar = d.Nodes[v].HW[hwIdx].DelayNS, d.Nodes[v].HW[hwIdx].AreaUM2
		case e.choseHW(res, v):
			o := res.chosen[v] - e.tab.NumSW[v]
			dl, ar = d.Nodes[v].HW[o].DelayNS, d.Nodes[v].HW[o].AreaUM2
		default:
			dl, ar = d.Nodes[v].HW[0].DelayNS, d.Nodes[v].HW[0].AreaUM2
		}
		depth[v] = in + dl
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += ar
	}
	return delayNS, areaUM2, sched.CyclesForDelay(delayNS)
}

// meritUpdateReference is meritUpdate with vSx built and measured for every
// operation on its own.
func (e *explorer) meritUpdateReference(res *walkResult) {
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
			e.hwMeritReference(res, x)
		}
		aco.Normalize(e.tab.Merit[x], 100*float64(len(e.tab.Merit[x])))
	}
}

// hwMeritReference applies the four cases of Fig. 4.3.7 to every hardware
// option of x, measuring vSx from scratch.
func (e *explorer) hwMeritReference(res *walkResult, x int) {
	d := e.d
	p := e.p
	hw := d.Nodes[x].HW
	base := e.tab.NumSW[x]

	if res.critical.Contains(x) && !p.NoCriticalPath {
		for j := range hw {
			e.tab.Merit[x][base+j] /= p.BetaCP
		}
	}
	vs := e.virtualSubgraphReference(res, x)
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
	swDepth := swDepthReference(d, vs, members)
	cyclesOf := make([]int, len(hw))
	areaOf := make([]float64, len(hw))
	minCycles, maxArea := 1<<30, 0.0
	for j := range hw {
		_, area, cyc := e.vsMetricsReference(res, vs, members, x, j)
		cyclesOf[j], areaOf[j] = cyc, area
		if cyc < minCycles {
			minCycles = cyc
		}
		if area > maxArea {
			maxArea = area
		}
	}
	onCritical := false
	for _, v := range members {
		if res.critical.Contains(v) {
			onCritical = true
			break
		}
	}
	if p.NoCriticalPath {
		onCritical = false
	}
	if p.NoMaxAEC {
		onCritical = true
	}
	maxAEC := 0
	if !onCritical {
		maxAEC = e.mobility(res, vs)
	}
	for j := range hw {
		m := &e.tab.Merit[x][base+j]
		if p.MaxISECycles > 0 && cyclesOf[j] > p.MaxISECycles {
			*m *= p.BetaIO
			continue
		}
		saving := swDepth - cyclesOf[j]
		switch {
		case saving > 0:
			*m *= float64(1 + saving)
		case saving < 0:
			*m /= float64(1 - saving)
		}
		if onCritical {
			if cyclesOf[j] == minCycles {
				if areaOf[j] > 0 {
					*m *= maxArea / areaOf[j]
				}
			} else {
				*m /= float64(1 + cyclesOf[j] - minCycles)
			}
		} else {
			if cyclesOf[j] <= maxAEC {
				if areaOf[j] > 0 {
					*m *= maxArea / areaOf[j]
				}
			} else {
				*m /= float64(1 + cyclesOf[j] - maxAEC)
			}
		}
	}
}

// swDepthReference returns the longest dependence chain within vs at unit
// software latency; members must hold vs's members in topological order.
func swDepthReference(d *dfg.DFG, vs graph.NodeSet, members []int) int {
	depth := make([]int, d.Len())
	best := 0
	for _, v := range members {
		in := 0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		depth[v] = in + 1
		if depth[v] > best {
			best = depth[v]
		}
	}
	return best
}

// newISEReference is NewISE measured through a whole-block assignment and
// sched.GroupDelayNS / sched.GroupAreaUM2.
func newISEReference(d *dfg.DFG, nodes graph.NodeSet, opts map[int]int) *ISE {
	a := make(sched.Assignment, d.Len())
	for i := range a {
		a[i] = sched.NodeChoice{Kind: sched.KindSW, Opt: 0, Group: -1}
	}
	option := map[int]int{}
	for _, v := range nodes.Values() {
		o := opts[v]
		a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: o, Group: 0}
		option[v] = o
	}
	delay := sched.GroupDelayNS(d, nodes, a)
	return &ISE{
		Nodes:   nodes.Clone(),
		Option:  option,
		DelayNS: delay,
		Cycles:  sched.CyclesForDelay(delay),
		AreaUM2: sched.GroupAreaUM2(d, nodes, a),
		In:      d.In(nodes),
		Out:     d.Out(nodes),
	}
}

// differentialDFGs returns the paper's seven kernels' O3 hot blocks and a
// few random blocks.
func differentialDFGs(t *testing.T) []*dfg.DFG {
	t.Helper()
	var out []*dfg.DFG
	for _, name := range bench.Names() {
		out = append(out, hotBenchDFG(t, name, "O3"))
	}
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 6; i++ {
		out = append(out, randprog.DFG(r, randprog.Config{
			Ops:      10 + r.Intn(50),
			MemFrac:  r.Float64() * 0.25,
			MultFrac: r.Float64() * 0.15,
		}))
	}
	return out
}

// differentialFixed returns accepted ISEs for d: the result of a fast
// exploration, or, when that accepts none, the first convex two-node chain
// of eligible operations. It may be empty.
func differentialFixed(t *testing.T, d *dfg.DFG, cfg machine.Config) []*ISE {
	t.Helper()
	r, err := Explore(t.Context(), d, cfg, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ISEs) > 0 {
		return r.ISEs
	}
	for u := 0; u < d.Len(); u++ {
		for _, v := range d.G.Succs(u) {
			s := graph.NodeSetOf(d.Len(), u, v)
			if d.Nodes[u].ISEEligible() && d.Nodes[v].ISEEligible() && d.IsConvex(s) {
				return []*ISE{NewISE(d, s, map[int]int{})}
			}
		}
	}
	return nil
}

// explorerPair returns two identically seeded explorers over d with the
// given params and accepted ISEs.
func explorerPair(t *testing.T, d *dfg.DFG, cfg machine.Config, p Params, fixed []*ISE) (a, b *explorer) {
	t.Helper()
	mk := func() *explorer {
		e := newExplorer(t, d, cfg)
		e.p = p
		e.rng, e.rngSrc = aco.NewCountedRand(p.Seed)
		e.fixed = append(e.fixed, fixed...)
		for g, f := range fixed {
			for _, v := range f.Nodes.Values() {
				e.fixedGroupOf[v] = g
			}
		}
		e.initPriority()
		e.tab.Seed(e.d, e.p.Coefs())
		return e
	}
	return mk(), mk()
}

func sameBits(a, b [][]float64) bool {
	for x := range a {
		for o := range a[x] {
			if math.Float64bits(a[x][o]) != math.Float64bits(b[x][o]) {
				return false
			}
		}
	}
	return true
}

// sameWalk reports the first walkResult field on which a and b differ, or
// "" when they agree on all of them.
func sameWalk(a, b *walkResult) string {
	switch {
	case a.tet != b.tet:
		return fmt.Sprintf("tet %d vs %d", a.tet, b.tet)
	case !reflect.DeepEqual(a.chosen, b.chosen):
		return "chosen"
	case !reflect.DeepEqual(a.orderPos, b.orderPos):
		return "orderPos"
	case !reflect.DeepEqual(a.groupOf, b.groupOf):
		return "groupOf"
	case !a.critical.Equal(b.critical):
		return "critical"
	case len(a.groups) != len(b.groups):
		return "group count"
	}
	for i := range a.depthNS {
		if math.Float64bits(a.depthNS[i]) != math.Float64bits(b.depthNS[i]) {
			return "depthNS"
		}
	}
	for i := range a.groups {
		ga, gb := &a.groups[i], &b.groups[i]
		if ga.index != gb.index || !ga.nodes.Equal(gb.nodes) || ga.cycle != gb.cycle ||
			ga.lat != gb.lat || ga.reads != gb.reads || ga.writes != gb.writes ||
			math.Float64bits(ga.delayNS) != math.Float64bits(gb.delayNS) {
			return fmt.Sprintf("group %d", i)
		}
	}
	return ""
}

// TestIterationMatchesReference drives the optimized ant iteration (the
// incremental Ready-Matrix walk, incremental pack IN/OUT, chained group
// members, labelled components and compact vSx sweeps) and the references
// side by side from identical state, over the seven kernels' O3
// hot blocks and random blocks on every paper machine (tight and wide
// register ports), with and without accepted ISEs and with Greedy
// selection: every walk must return the identical walkResult after the
// identical number of random draws, every labelled vSx must equal the DFS
// one, and every merit update must leave bit-identical tables.
func TestIterationMatchesReference(t *testing.T) {
	dfgs := differentialDFGs(t)
	for _, cfg := range machine.Configs() {
		for i, d := range dfgs {
			checkIteration(t, d, cfg, i)
		}
	}
}

func checkIteration(t *testing.T, d *dfg.DFG, cfg machine.Config, i int) {
	fixed := differentialFixed(t, d, cfg)
	for _, variant := range []string{"free", "fixed", "greedy"} {
		p := FastParams()
		p.Seed = int64(100 + i)
		var f []*ISE
		switch variant {
		case "fixed":
			f = fixed
		case "greedy":
			p.Greedy = true
		}
		label := fmt.Sprintf("%d:%s/%s/%s", i, d.Name, cfg.Name, variant)
		a, b := explorerPair(t, d, cfg, p, f)
		var prevA, prevB []int
		tetOld := 1 << 30
		for it := 0; it < 40; it++ {
			ra, rb := a.walk(), b.walkReference()
			if diff := sameWalk(ra, rb); diff != "" {
				t.Fatalf("%s iter %d: walk differs from reference: %s", label, it, diff)
			}
			if a.rngSrc.Draws() != b.rngSrc.Draws() {
				t.Fatalf("%s iter %d: draws %d vs reference %d", label, it, a.rngSrc.Draws(), b.rngSrc.Draws())
			}
			improved := ra.tet <= tetOld
			if improved {
				tetOld = ra.tet
			}
			a.trailUpdate(ra, improved, prevA)
			b.trailUpdate(rb, improved, prevB)
			a.labelComponents(ra)
			for x := 0; x < d.Len(); x++ {
				if a.fixedGroupOf[x] < 0 && !a.labelledVS(x).Equal(b.virtualSubgraphReference(rb, x)) {
					t.Fatalf("%s iter %d: vS(%d) = %v, reference %v", label, it, x, a.labelledVS(x), b.virtualSubgraphReference(rb, x))
				}
			}
			a.meritUpdate(ra)
			b.meritUpdateReference(rb)
			if !sameBits(a.tab.Merit, b.tab.Merit) || !sameBits(a.tab.Trail, b.tab.Trail) {
				t.Fatalf("%s iter %d: tables differ from reference after meritUpdate", label, it)
			}
			prevA = append(prevA[:0], ra.orderPos...)
			prevB = append(prevB[:0], rb.orderPos...)
		}
	}
}

// TestNewISEMatchesReference: NewISE measures delay and area without a
// whole-block assignment and must agree bit for bit with the
// assignment-based measurement, over the ISEs explorations accept on the
// kernels and random blocks and over random eligible node sets with random
// options.
func TestNewISEMatchesReference(t *testing.T) {
	cfg := machine.New(2, 4, 2)
	r := rand.New(rand.NewSource(7))
	check := func(d *dfg.DFG, nodes graph.NodeSet, opts map[int]int) {
		t.Helper()
		got, want := NewISE(d, nodes, opts), newISEReference(d, nodes, opts)
		if math.Float64bits(got.DelayNS) != math.Float64bits(want.DelayNS) ||
			math.Float64bits(got.AreaUM2) != math.Float64bits(want.AreaUM2) ||
			got.Cycles != want.Cycles || got.In != want.In || got.Out != want.Out ||
			!got.Nodes.Equal(want.Nodes) || !reflect.DeepEqual(got.Option, want.Option) {
			t.Fatalf("%s: NewISE %v differs from reference %v", d.Name, got, want)
		}
	}
	for _, d := range differentialDFGs(t) {
		for _, ise := range differentialFixed(t, d, cfg) {
			check(d, ise.Nodes, ise.Option)
		}
		var eligible []int
		for v := 0; v < d.Len(); v++ {
			if len(d.Nodes[v].HW) > 0 {
				eligible = append(eligible, v)
			}
		}
		if len(eligible) == 0 {
			continue
		}
		for trial := 0; trial < 50; trial++ {
			nodes := graph.NewNodeSet(d.Len())
			opts := map[int]int{}
			for _, v := range eligible {
				if r.Intn(3) == 0 {
					nodes.Add(v)
					opts[v] = r.Intn(len(d.Nodes[v].HW))
				}
			}
			check(d, nodes, opts)
		}
	}
}

// TestCriticalNodesMatchesReference checks the issue-cycle sweep of
// criticalNodes against the CSR-and-Kahn reference over the kernels' O3 hot
// blocks and random blocks, on every paper machine and a 2-ASFU machine,
// with and without accepted ISEs: along every contracted edge the issue
// cycle must strictly increase, and the critical sets must be identical.
func TestCriticalNodesMatchesReference(t *testing.T) {
	cfgs := append(machine.Configs(), machine.New(2, 4, 2).WithASFUs(2))
	for i, d := range differentialDFGs(t) {
		for _, cfg := range cfgs {
			fixed := differentialFixed(t, d, cfg)
			for _, variant := range []string{"free", "fixed"} {
				p := FastParams()
				p.Seed = int64(200 + i)
				var f []*ISE
				if variant == "fixed" {
					f = fixed
				}
				label := fmt.Sprintf("%d:%s/%s/%s", i, d.Name, cfg.Name, variant)
				e, _ := explorerPair(t, d, cfg, p, f)
				var prev []int
				tetOld := 1 << 30
				for it := 0; it < 15; it++ {
					res := e.walk()
					want, topo := e.criticalNodesReference(res)
					if !topo {
						t.Fatalf("%s iter %d: issue cycles do not increase along a contracted edge", label, it)
					}
					if !res.critical.Equal(want) {
						t.Fatalf("%s iter %d: critical %v, reference %v", label, it, res.critical, want)
					}
					improved := res.tet <= tetOld
					if improved {
						tetOld = res.tet
					}
					e.trailUpdate(res, improved, prev)
					e.meritUpdate(res)
					prev = append(prev[:0], res.orderPos...)
				}
			}
		}
	}
}

// TestPackIOMatchesRecount grows walk groups node by node in a legal pack
// order over 200 random blocks and the kernels' O3 hot blocks on every paper
// machine: nodes arrive in topological order, so no member consumes a newer
// node, and each eligible node tries the group of one of its producers, as
// scheduleHW tries the latest parent's, or opens a fresh group. Every
// incremental IN and OUT must equal the map-based dfg.In and dfg.Out of the
// grown set and leave the group untouched. An attempt over the machine's
// ports, or one in five at random, is rolled back; the rest commit. At the
// end every group's member chain must list exactly its member set.
func TestPackIOMatchesRecount(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var dfgs []*dfg.DFG
	for i := 0; i < 200; i++ {
		dfgs = append(dfgs, randprog.DFG(r, randprog.Config{
			Ops:      2 + r.Intn(60),
			MemFrac:  r.Float64() * 0.3,
			MultFrac: r.Float64() * 0.15,
		}))
	}
	for _, name := range bench.Names() {
		dfgs = append(dfgs, hotBenchDFG(t, name, "O3"))
	}
	packs, rollbacks := 0, 0
	for _, cfg := range machine.Configs() {
		for i, d := range dfgs {
			p, b := checkPackIO(t, fmt.Sprintf("%d:%s/%s", i, d.Name, cfg.Name), d, cfg, r)
			packs, rollbacks = packs+p, rollbacks+b
		}
	}
	t.Logf("%d packs committed, %d rolled back", packs, rollbacks)
	if packs < 1000 || rollbacks < 1000 {
		t.Fatalf("%d packs committed and %d rolled back; the sweep no longer exercises both", packs, rollbacks)
	}
}

// checkPackIO grows d's groups on cfg and returns how many packs into an
// existing group it committed and rolled back.
func checkPackIO(t *testing.T, label string, d *dfg.DFG, cfg machine.Config, r *rand.Rand) (packs, rollbacks int) {
	e := newExplorer(t, d, cfg)
	res := e.beginWalk()
	for _, x := range d.Topo() {
		if !d.Nodes[x].ISEEligible() {
			continue
		}
		var g *walkGroup
		var parents []int
		for _, p := range d.G.Preds(x) {
			if res.groupOf[p] >= 0 {
				parents = append(parents, p)
			}
		}
		if len(parents) > 0 && r.Intn(4) != 0 {
			g = &res.groups[res.groupOf[parents[r.Intn(len(parents))]]]
		} else {
			g = e.appendGroup(res)
		}
		before := *g
		beforeNodes := g.nodes.Clone()
		ports := e.packIO(g, x)
		grown := g.nodes.Clone()
		grown.Add(x)
		if in, out := d.In(grown), d.Out(grown); ports.reads != in || ports.writes != out {
			t.Fatalf("%s: adding %d to %v: packIO IN/OUT %d/%d, recount %d/%d", label, x, g.nodes, ports.reads, ports.writes, in, out)
		}
		if !g.nodes.Equal(beforeNodes) || g.portUse != before.portUse || g.first != before.first {
			t.Fatalf("%s: packIO of %d changed its group", label, x)
		}
		fresh := g.nodes.Empty()
		if fresh && ports != e.solo[x] {
			t.Fatalf("%s: fresh group of %d uses %+v, solo %+v", label, x, ports, e.solo[x])
		}
		if !fresh && (ports.reads > cfg.ReadPorts || ports.writes > cfg.WritePorts || r.Intn(5) == 0) {
			rollbacks++
			continue
		}
		if !fresh {
			packs++
		}
		e.addMember(g, x, ports)
		res.groupOf[x] = g.index
	}
	for gi := range res.groups {
		g := &res.groups[gi]
		chain := graph.NewNodeSet(d.Len())
		for m := g.first; m >= 0; m = e.groupNext[m] {
			if chain.Contains(m) {
				t.Fatalf("%s: group %d's member chain revisits %d", label, gi, m)
			}
			chain.Add(m)
		}
		if !chain.Equal(g.nodes) {
			t.Fatalf("%s: group %d's member chain %v, members %v", label, gi, chain, g.nodes)
		}
	}
	return packs, rollbacks
}
