package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/sched"
)

// Reference implementations of the candidate shaping of each exploration
// round, kept as test-only code for TestShapeMatchesReference: the
// allocating Candidates, MakeConvex, TrimPorts and TrimLatency that
// shaper.shape and its in-place trims replaced. Each builds fresh sets, and
// Candidates an ISE per candidate.

// connectedComponents is graph.Graph's old allocating ConnectedComponents:
// fresh sets per call, in order of their smallest member. It clones the
// split of a fresh graph.Components, which graph's
// TestComponentsMatchReference pins to the old traversal.
func connectedComponents(g *graph.Graph, s graph.NodeSet) []graph.NodeSet {
	var c graph.Components
	var out []graph.NodeSet
	for _, comp := range c.Split(g, s) {
		out = append(out, comp.Clone())
	}
	return out
}

// Candidates is the allocating candidate shaping shaper.shape replaced: it
// builds an ISE per candidate and appends them to dst, which it returns. Each connected part of taken is made
// convex, trimmed to cfg's register ports, to maxCycles pipestages under the
// hardware options optOf, and to the ports again; every connected piece of at
// least two operations left becomes one ISE, in discovery order. A single
// operation cannot run faster than its 1-cycle software form. io is the
// caller's scratch for the port counts.
func Candidates(dst []*ISE, d *dfg.DFG, taken graph.NodeSet, optOf map[int]int, cfg machine.Config, maxCycles int, io *dfg.IOScratch) []*ISE {
	if taken.Empty() {
		return dst
	}
	for _, comp := range connectedComponents(d.G, taken) {
		for _, convex := range MakeConvex(d, comp) {
			feasible := TrimPorts(d, convex, cfg.ReadPorts, cfg.WritePorts, io)
			feasible = TrimLatency(d, feasible, optOf, maxCycles)
			feasible = TrimPorts(d, feasible, cfg.ReadPorts, cfg.WritePorts, io)
			for _, part := range connectedComponents(d.G, feasible) {
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
	var above graph.NodeSet
	d.AncestorsInto(&above, w, s)
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

// shapeDFGs returns the hot blocks the differential test shapes: the three
// hottest blocks of every kernel at O0 and O3, and random blocks.
func shapeDFGs(t *testing.T) []*dfg.DFG {
	t.Helper()
	var out []*dfg.DFG
	for _, name := range bench.Names() {
		for _, opt := range []string{"O0", "O3"} {
			bm, err := bench.Get(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			hot, err := bm.HotDFGs(3)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, hot...)
		}
	}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 8; i++ {
		out = append(out, randprog.DFG(r, randprog.Config{
			Ops:      10 + r.Intn(60),
			MemFrac:  r.Float64() * 0.25,
			MultFrac: r.Float64() * 0.15,
		}))
	}
	return out
}

// TestShapeMatchesReference runs one shaper, reused across every block,
// machine and pipestage cap, beside the reference Candidates on random
// hardware selections with random options: the same candidates in the same
// order, with equal node sets and options, bit-equal delay and area, and
// equal latency and port counts. Selections range from sparse to every
// eligible operation, on all six paper machines, with MaxISECycles 0
// (unlimited) and 3.
func TestShapeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var sh shaper
	var io dfg.IOScratch
	shaped := 0
	for _, d := range shapeDFGs(t) {
		var eligible []int
		for v := 0; v < d.Len(); v++ {
			if d.Nodes[v].ISEEligible() {
				eligible = append(eligible, v)
			}
		}
		for trial := 0; trial < 12; trial++ {
			// Keep each eligible node with probability keep/4: 1/4 to all.
			keep := 1 + trial%4
			taken := graph.NewNodeSet(d.Len())
			opts := map[int]int{}
			sh.optOf = grow(sh.optOf, d.Len())
			for _, v := range eligible {
				if r.Intn(4) < keep {
					o := r.Intn(len(d.Nodes[v].HW))
					taken.Add(v)
					opts[v] = o
					sh.optOf[v] = o
				}
			}
			sh.taken.CopyFrom(taken)
			for _, cfg := range machine.Configs() {
				for _, maxCycles := range []int{0, 3} {
					want := Candidates(nil, d, taken, opts, cfg, maxCycles, new(dfg.IOScratch))
					sh.shape(d, cfg, maxCycles, &io)
					if len(sh.cands) != len(want) {
						t.Fatalf("%s %s cap %d: %d candidates, reference %d", d.Name, cfg.Name, maxCycles, len(sh.cands), len(want))
					}
					for i, w := range want {
						got := sh.materialize(i)
						if !got.Nodes.Equal(w.Nodes) || !reflect.DeepEqual(got.Option, w.Option) ||
							math.Float64bits(got.DelayNS) != math.Float64bits(w.DelayNS) ||
							math.Float64bits(got.AreaUM2) != math.Float64bits(w.AreaUM2) ||
							got.Cycles != w.Cycles || got.In != w.In || got.Out != w.Out {
							t.Fatalf("%s %s cap %d: candidate %d = %v, reference %v", d.Name, cfg.Name, maxCycles, i, got, w)
						}
					}
					shaped += len(want)
				}
			}
		}
	}
	if shaped == 0 {
		t.Fatal("no selection shaped to a candidate")
	}
}
