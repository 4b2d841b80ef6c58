package core

import (
	"fmt"
	"strings"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/sched"
)

// ISE is one explored instruction-set extension: a convex set of DFG
// operations realized as a single ASFU instruction.
type ISE struct {
	// Nodes are the member operation IDs within the source DFG.
	Nodes graph.NodeSet
	// Option[v] is the hardware implementation option index chosen for
	// member v.
	Option map[int]int
	// DelayNS is the combinational depth of the chosen datapath.
	DelayNS float64
	// Cycles is the execution latency under the pipestage constraint.
	Cycles int
	// AreaUM2 is the silicon area of the chosen cells.
	AreaUM2 float64
	// In and Out are the register-port demands IN(S) and OUT(S).
	In, Out int
	// SavingCycles is the marginal schedule improvement measured when the
	// exploring algorithm accepted this ISE (under its own machine model):
	// the cycles the source block got shorter given the ISEs accepted
	// before it. The design flow prices candidates with it.
	SavingCycles int
}

// Size returns the number of member operations.
func (e *ISE) Size() int { return e.Nodes.Len() }

// String summarizes the ISE.
func (e *ISE) String() string {
	var ops []string
	for _, v := range e.Nodes.Values() {
		ops = append(ops, fmt.Sprintf("n%d", v))
	}
	return fmt.Sprintf("ISE{%s | %d cyc, %.0f µm², %d/%d ports}",
		strings.Join(ops, " "), e.Cycles, e.AreaUM2, e.In, e.Out)
}

// NewISE measures a node set with the given per-node hardware options.
// The delay and area sweeps read opts directly and visit members in the
// orders sched.GroupDelayNS and sched.GroupAreaUM2 use (topological for the
// delay, ascending ID for the area sum), so both floats equal the
// assignment-based measurement bit for bit.
func NewISE(d *dfg.DFG, nodes graph.NodeSet, opts map[int]int) *ISE {
	option := map[int]int{}
	area := 0.0
	for v := nodes.Next(0); v >= 0; v = nodes.Next(v + 1) {
		o := opts[v]
		option[v] = o
		area += d.Nodes[v].HW[o].AreaUM2
	}
	delay := GroupDelayNS(d, nodes, option)
	return &ISE{
		Nodes:   nodes.Clone(),
		Option:  option,
		DelayNS: delay,
		Cycles:  sched.CyclesForDelay(delay),
		AreaUM2: area,
		In:      d.In(nodes),
		Out:     d.Out(nodes),
	}
}

// GroupDelayNS is the combinational depth of nodes with member v using
// hardware option opts[v]: sched.GroupDelayNS without a whole-block
// assignment, equal to it bit for bit.
func GroupDelayNS(d *dfg.DFG, nodes graph.NodeSet, opts map[int]int) float64 {
	// dist is node-indexed, on the stack for blocks of up to 256 nodes. Each
	// member's entry is written before any later member reads it: members
	// are visited in topological order.
	var buf [256]float64
	dist := buf[:]
	if n := d.Len(); n > len(buf) {
		dist = make([]float64, n)
	}
	best := 0.0
	for _, v := range d.Topo() {
		if !nodes.Contains(v) {
			continue
		}
		in := 0.0
		for _, u := range d.G.Preds(v) {
			if nodes.Contains(u) && dist[u] > in {
				in = dist[u]
			}
		}
		dist[v] = in + d.Nodes[v].HW[opts[v]].DelayNS
		if dist[v] > best {
			best = dist[v]
		}
	}
	return best
}

// BuildAssignmentWith is BuildAssignment(d, ises) built in buf's array when
// it is large enough: the ISEs are hardware groups in order, every other
// node software. The result reuses buf, so it is valid until buf's next use.
func BuildAssignmentWith(buf sched.Assignment, d *dfg.DFG, ises []*ISE) sched.Assignment {
	n := d.Len()
	if cap(buf) < n {
		buf = make(sched.Assignment, n)
	}
	a := buf[:n]
	for i := range a {
		a[i] = sched.NodeChoice{Kind: sched.KindSW, Opt: 0, Group: -1}
	}
	for g, f := range ises {
		for v := f.Nodes.Next(0); v >= 0; v = f.Nodes.Next(v + 1) {
			a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: f.Option[v], Group: g}
		}
	}
	return a
}

// BuildAssignment converts accepted ISEs into a full scheduler assignment,
// all remaining nodes software.
func BuildAssignment(d *dfg.DFG, ises []*ISE) sched.Assignment {
	return BuildAssignmentWith(nil, d, ises)
}
