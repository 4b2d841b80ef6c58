package core

import (
	"repro/internal/arena"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
)

// candidate is one ISE candidate of a round, a value in the shaper's arena:
// its member set is pooled, its options are the shaper's optOf, and its
// measurements equal NewISE's bit for bit. Only the candidate a round
// accepts becomes an *ISE (shaper.materialize).
type candidate struct {
	nodes   graph.NodeSet
	delayNS float64
	cycles  int
	areaUM2 float64
	in, out int
	// rejected marks a candidate the SI step's kernel check refused with
	// the accepted ISEs; later picks of the round skip it.
	rejected bool
}

// shaper is the arena in which a round's converged hardware selection is
// shaped into ISE candidates (§4.3): each connected part of the selection is
// made convex, trimmed to the register ports, to the pipestage cap under the
// chosen options, and to the ports again, and every connected piece of at
// least two operations left becomes a candidate, in discovery order. A
// single operation cannot run faster than its 1-cycle software form. Every
// step works on pooled sets in place, so a warm shaper allocates nothing;
// the order in which each step visits nodes is the order of the allocating
// references kept in the tests (Candidates, MakeConvex, TrimPorts,
// TrimLatency), so the candidates, their order and their measurements are
// the same.
type shaper struct {
	taken   graph.NodeSet    // arena: the converged hardware selection
	optOf   []int            // arena: node -> hardware option index, valid for taken's members
	comps   graph.Components // arena: taken's connected components
	parts   graph.Components // arena: a trimmed piece's connected parts
	work    []graph.NodeSet  // arena: Make-Convex's work stack, pooled beyond its length
	members []int            // arena: trimPorts' member list
	depth   []float64        // arena: node-indexed combinational depths
	cands   []candidate      // arena: the round's candidates, pooled beyond its length
}

// presize grows the shaper's counter-tracked buffers to n nodes.
func (sh *shaper) presize(n int) {
	sh.optOf = grow(sh.optOf, n)
	sh.depth = grow(sh.depth, n)
}

// shape fills cands with the candidates of taken under the options optOf,
// the register ports of cfg and maxCycles pipestages (0 = unlimited). io is
// the caller's scratch for the port counts.
//
//alloc:free
func (sh *shaper) shape(d *dfg.DFG, cfg machine.Config, maxCycles int, io *dfg.IOScratch) {
	sh.cands = sh.cands[:0]
	if sh.taken.Empty() {
		return
	}
	n := d.Len()
	sh.depth = grow(sh.depth, n)
	for _, comp := range sh.comps.Split(d.G, sh.taken) {
		// Make-Convex as an explicit work stack: a set with a path between
		// members through an outside node w is replaced by the rest of it
		// with the members above w on top, so pieces come out in the
		// depth-first order of the recursive split — above, then rest.
		// Neither part is ever empty (w has a member above and below it);
		// an empty one would shape to no candidate anyway.
		var top *graph.NodeSet
		sh.work, top = arena.Push(sh.work[:0])
		top.CopyFrom(comp)
		for len(sh.work) > 0 {
			k := len(sh.work) - 1
			w := d.ConvexViolator(sh.work[k])
			if w < 0 {
				piece := &sh.work[k]
				sh.work = sh.work[:k]
				sh.trim(d, piece, cfg, maxCycles, io)
				continue
			}
			var above *graph.NodeSet
			sh.work, above = arena.Push(sh.work)
			d.AncestorsInto(above, w, sh.work[k])
			sh.work[k].SubtractWith(*above)
		}
	}
}

// trim shrinks one convex piece in place to the ports, the pipestage cap
// and the ports again, and appends every connected part of at least two
// operations left as a candidate.
func (sh *shaper) trim(d *dfg.DFG, piece *graph.NodeSet, cfg machine.Config, maxCycles int, io *dfg.IOScratch) {
	sh.trimPorts(d, piece, cfg.ReadPorts, cfg.WritePorts, io)
	sh.trimLatency(d, piece, maxCycles)
	sh.trimPorts(d, piece, cfg.ReadPorts, cfg.WritePorts, io)
	for _, part := range sh.parts.Split(d.G, *piece) {
		if part.Len() < 2 {
			continue
		}
		var c *candidate
		sh.cands, c = arena.Push(sh.cands)
		c.nodes.CopyFrom(part)
		sh.measure(d, c, io)
	}
}

// measure sets c's delay, latency, area and port counts: the area sums its
// members in ascending ID order and the delay sweeps them in topological
// order, as NewISE and GroupDelayNS do.
func (sh *shaper) measure(d *dfg.DFG, c *candidate, io *dfg.IOScratch) {
	area := 0.0
	for v := c.nodes.Next(0); v >= 0; v = c.nodes.Next(v + 1) {
		area += d.Nodes[v].HW[sh.optOf[v]].AreaUM2
	}
	dist := sh.depth
	delay := 0.0
	for _, v := range d.Topo() {
		if !c.nodes.Contains(v) {
			continue
		}
		in := 0.0
		for _, u := range d.G.Preds(v) {
			if c.nodes.Contains(u) && dist[u] > in {
				in = dist[u]
			}
		}
		dist[v] = in + d.Nodes[v].HW[sh.optOf[v]].DelayNS
		if dist[v] > delay {
			delay = dist[v]
		}
	}
	c.delayNS = delay
	c.cycles = sched.CyclesForDelay(delay)
	c.areaUM2 = area
	c.in = d.InScratch(c.nodes, io)
	c.out = d.Out(c.nodes)
	c.rejected = false
}

// trimPorts shrinks a convex set in place until IN(S) ≤ nin and
// OUT(S) ≤ nout, greedily removing the boundary node whose removal lowers
// the total port demand most (ties: the largest node ID, so later
// operations are shed first). Removal keeps the set convex because only
// extreme (source/sink within S) nodes are dropped. Each trial removal is
// made and undone in place.
func (sh *shaper) trimPorts(d *dfg.DFG, cur *graph.NodeSet, nin, nout int, io *dfg.IOScratch) {
	for cur.Len() > 0 {
		if d.InScratch(*cur, io) <= nin && d.Out(*cur) <= nout {
			return
		}
		// Candidate removals: nodes with no predecessor inside (sources) or
		// no successor inside (sinks) — removing an interior node would
		// break convexity.
		bestNode, bestCost := -1, 1<<30
		sh.members = cur.AppendValues(sh.members[:0])
		for _, v := range sh.members {
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
			cost := d.InScratch(*cur, io) + d.Out(*cur)
			cur.Add(v)
			if cost < bestCost || (cost == bestCost && v > bestNode) {
				bestCost, bestNode = cost, v
			}
		}
		if bestNode < 0 {
			// No extreme node (cannot happen in a DAG); bail out.
			return
		}
		cur.Remove(bestNode)
	}
}

// trimLatency shrinks a set in place until its pipestage latency under the
// options optOf fits maxCycles (0 = unlimited), repeatedly removing the
// deepest sink operation — the one terminating the longest internal delay
// path. Removing sinks preserves convexity.
func (sh *shaper) trimLatency(d *dfg.DFG, cur *graph.NodeSet, maxCycles int) {
	if maxCycles <= 0 {
		return
	}
	// Each member's depth is written before any later member reads it:
	// members are visited in topological order.
	depth := sh.depth
	for cur.Len() > 0 {
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
			depth[v] = in + d.Nodes[v].HW[sh.optOf[v]].DelayNS
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
			return
		}
		cur.Remove(worstNode)
	}
}

// materialize builds candidate i as an ISE of its own: a clone of its
// members, their options and its measurements. It is the one heap ISE a
// round builds, for the candidate it accepts.
func (sh *shaper) materialize(i int) *ISE {
	c := &sh.cands[i]
	option := make(map[int]int, c.nodes.Len())
	for v := c.nodes.Next(0); v >= 0; v = c.nodes.Next(v + 1) {
		option[v] = sh.optOf[v]
	}
	return &ISE{
		Nodes:   c.nodes.Clone(),
		Option:  option,
		DelayNS: c.delayNS,
		Cycles:  c.cycles,
		AreaUM2: c.areaUM2,
		In:      c.in,
		Out:     c.out,
	}
}
