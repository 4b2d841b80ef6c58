package core

import (
	"fmt"
	"strings"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
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

// Candidates shapes a converged hardware selection into ISE candidates and
// appends them to dst, which it returns. Each connected part of taken is made
// convex, trimmed to cfg's register ports, to maxCycles pipestages under the
// hardware options optOf, and to the ports again; every connected piece of at
// least two operations left becomes one ISE, in discovery order. A single
// operation cannot run faster than its 1-cycle software form. io is the
// caller's scratch for the port counts.
func Candidates(dst []*ISE, d *dfg.DFG, taken graph.NodeSet, optOf map[int]int, cfg machine.Config, maxCycles int, io *dfg.IOScratch) []*ISE {
	if taken.Empty() {
		return dst
	}
	for _, comp := range d.G.ConnectedComponents(taken) {
		for _, convex := range MakeConvex(d, comp) {
			feasible := TrimPorts(d, convex, cfg.ReadPorts, cfg.WritePorts, io)
			feasible = TrimLatency(d, feasible, optOf, maxCycles)
			feasible = TrimPorts(d, feasible, cfg.ReadPorts, cfg.WritePorts, io)
			for _, part := range d.G.ConnectedComponents(feasible) {
				if part.Len() >= 2 {
					dst = append(dst, NewISE(d, part, optOf))
				}
			}
		}
	}
	return dst
}

// MakeConvex splits a candidate node set into convex pieces (§4.3
// Make-Convex): while a set has a path between members through an outside
// node, it is divided along that node into the members above it and the
// rest, recursively.
func MakeConvex(d *dfg.DFG, s graph.NodeSet) []graph.NodeSet {
	w := d.ConvexViolator(s)
	if w < 0 {
		return []graph.NodeSet{s}
	}
	above := d.AncestorsIn(w, s)
	rest := s.Subtract(above)
	var out []graph.NodeSet
	if !above.Empty() {
		out = append(out, MakeConvex(d, above)...)
	}
	if !rest.Empty() {
		out = append(out, MakeConvex(d, rest)...)
	}
	return out
}

// TrimPorts shrinks a convex candidate until IN(S) ≤ nin and OUT(S) ≤ nout,
// greedily removing the boundary node whose removal lowers the total port
// demand most (ties: smallest resulting area loss, then largest node ID so
// later operations are shed first). Removal keeps the set convex because
// only extreme (source/sink within S) nodes are dropped. The port counts go
// through io, the caller's scratch, and each trial removal is made and
// undone in place.
func TrimPorts(d *dfg.DFG, s graph.NodeSet, nin, nout int, io *dfg.IOScratch) graph.NodeSet {
	cur := s.Clone()
	var members []int
	for cur.Len() > 0 {
		if d.InScratch(cur, io) <= nin && d.Out(cur) <= nout {
			return cur
		}
		// Candidate removals: nodes with no predecessor inside (sources) or
		// no successor inside (sinks) — removing an interior node would
		// break convexity.
		bestNode, bestCost := -1, 1<<30
		members = cur.AppendValues(members[:0])
		for _, v := range members {
			hasPredIn, hasSuccIn := false, false
			for _, p := range d.G.Preds(v) {
				if cur.Contains(p) {
					hasPredIn = true
					break
				}
			}
			for _, q := range d.G.Succs(v) {
				if cur.Contains(q) {
					hasSuccIn = true
					break
				}
			}
			if hasPredIn && hasSuccIn {
				continue
			}
			cur.Remove(v)
			cost := d.InScratch(cur, io) + d.Out(cur)
			cur.Add(v)
			if cost < bestCost || (cost == bestCost && v > bestNode) {
				bestCost, bestNode = cost, v
			}
		}
		if bestNode < 0 {
			// No extreme node (cannot happen in a DAG); bail out.
			break
		}
		cur.Remove(bestNode)
	}
	return cur
}

// TrimLatency shrinks a candidate until its pipestage latency fits maxCycles
// (0 = unlimited), repeatedly removing the deepest sink operation — the one
// terminating the longest internal delay path. Removing sinks preserves
// convexity.
func TrimLatency(d *dfg.DFG, s graph.NodeSet, opts map[int]int, maxCycles int) graph.NodeSet {
	if maxCycles <= 0 {
		return s
	}
	cur := s.Clone()
	// depth is node-indexed, on the stack for blocks of up to 256 nodes.
	// Each member's entry is written before any later member reads it:
	// members are visited in topological order.
	var buf [256]float64
	depth := buf[:]
	if n := d.Len(); n > len(buf) {
		depth = make([]float64, n)
	}
	for cur.Len() > 0 {
		// Internal delay depths under the chosen options.
		worst, worstNode := 0.0, -1
		for _, v := range d.Topo() {
			if !cur.Contains(v) {
				continue
			}
			in := 0.0
			for _, p := range d.G.Preds(v) {
				if cur.Contains(p) && depth[p] > in {
					in = depth[p]
				}
			}
			depth[v] = in + d.Nodes[v].HW[opts[v]].DelayNS
			// Only sinks (no internal successor) are removable.
			isSink := true
			for _, q := range d.G.Succs(v) {
				if cur.Contains(q) {
					isSink = false
					break
				}
			}
			if isSink && depth[v] > worst {
				worst, worstNode = depth[v], v
			}
		}
		if sched.CyclesForDelay(worst) <= maxCycles {
			return cur
		}
		cur.Remove(worstNode)
	}
	return cur
}

// BuildAssignmentWith is BuildAssignment(d, append(ises, cand)) built in
// buf's array when it is large enough: the accepted ISEs are groups in
// acceptance order, cand (when not nil) the last group. The result reuses
// buf, so it is valid until buf's next use.
func BuildAssignmentWith(buf sched.Assignment, d *dfg.DFG, ises []*ISE, cand *ISE) sched.Assignment {
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
	if cand == nil {
		return a
	}
	for v := cand.Nodes.Next(0); v >= 0; v = cand.Nodes.Next(v + 1) {
		a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: cand.Option[v], Group: len(ises)}
	}
	return a
}

// BuildAssignment converts accepted ISEs into a full scheduler assignment,
// all remaining nodes software.
func BuildAssignment(d *dfg.DFG, ises []*ISE) sched.Assignment {
	a := sched.AllSoftware(d.Len())
	for g, e := range ises {
		for v := e.Nodes.Next(0); v >= 0; v = e.Nodes.Next(v + 1) {
			a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: e.Option[v], Group: g}
		}
	}
	return a
}
