// Package dfg builds per-basic-block dataflow graphs — the G of the paper —
// and the extended graph G+ in which every operation carries its
// implementation-option (IO) table. It also answers the subgraph-level
// queries the ISE formulation of §4.2 needs: IN(S), OUT(S) value counts and
// convexity.
package dfg

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/prog"
)

// ValueSource identifies where a node input value comes from: another node
// of the same block (Producer >= 0) or a block live-in register
// (Producer == -1, Reg names it).
type ValueSource struct {
	Producer int
	Reg      prog.Reg
}

// Node is one operation of the DFG with its implementation-option table
// attached (the G+ extension of §4.1).
type Node struct {
	ID    int
	Instr prog.Instr
	// SW and HW are the software and hardware implementation options. HW is
	// empty for operations that cannot join an ISE.
	SW []isa.SWOption
	HW []isa.HWOption
	// Inputs are the register data inputs (excluding $zero, which is wired
	// constant and consumes no read port).
	Inputs []ValueSource
	// DataSuccs are nodes consuming this node's value.
	DataSuccs []int
	// LiveOut reports whether this node produces the final definition of a
	// register that is live out of the block.
	LiveOut bool
}

// ISEEligible reports whether the node may be packed into an ISE.
func (n *Node) ISEEligible() bool { return len(n.HW) > 0 }

// DFG is the dataflow graph of one basic block, weighted by its profiled
// execution count.
type DFG struct {
	Name       string
	BlockIndex int
	Weight     uint64
	Nodes      []*Node
	// G holds every scheduling dependence: data edges, memory-order edges
	// and the store→terminator edge.
	G *graph.Graph
	// Data holds only true dataflow edges; candidate-ISE value counting
	// runs on this graph.
	Data *graph.Graph

	// cl is G's transitive closure and topological order, built on first
	// use; clOnce publishes it. The DFG is immutable after Build, so one
	// closure answers every later query.
	clOnce sync.Once
	cl     *graph.Closure

	// fp is the lazily computed content fingerprint; fpOnce ensures the
	// computation runs at most once and publishes fp safely.
	fpOnce sync.Once
	fp     [2]uint64
}

// Build constructs the DFG of block blockIdx of p, weighted by weight.
// liveOut is that block's live-out register set from global liveness.
func Build(p *prog.Program, blockIdx int, weight uint64, liveOut prog.RegSet) *DFG {
	bb := p.Blocks[blockIdx]
	n := len(bb.Instrs)
	d := &DFG{
		Name:       fmt.Sprintf("%s/%s", p.Name, bb.Name()),
		BlockIndex: blockIdx,
		Weight:     weight,
		G:          graph.New(n),
		Data:       graph.New(n),
	}
	lastDef := map[prog.Reg]int{}
	var lastStore = -1
	var loadsSinceStore []int
	for i, in := range bb.Instrs {
		node := &Node{
			ID:    i,
			Instr: in,
			SW:    isa.SoftwareOptions(in.Op),
			HW:    isa.HardwareOptions(in.Op),
		}
		d.Nodes = append(d.Nodes, node)
		for _, r := range in.Uses() {
			if r == prog.Zero {
				continue
			}
			if def, ok := lastDef[r]; ok {
				d.G.AddEdge(def, i)
				d.Data.AddEdge(def, i)
				node.Inputs = append(node.Inputs, ValueSource{Producer: def, Reg: r})
				d.Nodes[def].DataSuccs = appendUnique(d.Nodes[def].DataSuccs, i)
			} else {
				node.Inputs = append(node.Inputs, ValueSource{Producer: -1, Reg: r})
			}
		}
		// Conservative memory ordering (no alias analysis): stores are
		// ordered with every other memory access.
		if isa.IsLoad(in.Op) {
			if lastStore >= 0 {
				d.G.AddEdge(lastStore, i)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		}
		if isa.IsStore(in.Op) {
			if lastStore >= 0 {
				d.G.AddEdge(lastStore, i)
			}
			for _, l := range loadsSinceStore {
				d.G.AddEdge(l, i)
			}
			lastStore = i
			loadsSinceStore = nil
		}
		if dr, ok := in.Defs(); ok {
			lastDef[dr] = i
		}
	}
	// Stores must complete before control leaves the block.
	if term, ok := bb.Terminator(); ok && isa.IsBranch(term.Op) {
		ti := n - 1
		if lastStore >= 0 && lastStore != ti {
			d.G.AddEdge(lastStore, ti)
		}
	}
	// Mark live-out producers.
	for r, def := range lastDef {
		if liveOut.Contains(r) {
			d.Nodes[def].LiveOut = true
		}
	}
	return d
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// Len returns the number of operations.
func (d *DFG) Len() int { return len(d.Nodes) }

// Fingerprint returns a 128-bit content hash of everything a schedule of
// this DFG can depend on: the name, the per-node implementation-option
// tables, input sources, data successors, live-out flags, and both edge
// sets. Two DFGs with equal fingerprints are interchangeable for schedule
// evaluation (up to the ~2^-128 collision probability of the two independent
// multiply-mix chains), so caches may key on the fingerprint instead of the
// (non-unique) name. Computed once per DFG and safe for concurrent use.
func (d *DFG) Fingerprint() [2]uint64 {
	d.fpOnce.Do(func() {
		h1, h2 := uint64(14695981039346656037), uint64(0x9e3779b97f4a7c15)
		mix := func(v uint64) {
			h1 = (h1 ^ v) * 1099511628211
			h2 = (h2 ^ bits.RotateLeft64(v, 31)) * 0xff51afd7ed558ccd
		}
		for i := 0; i < len(d.Name); i++ {
			mix(uint64(d.Name[i]))
		}
		mix(uint64(len(d.Nodes)))
		for _, n := range d.Nodes {
			mix(uint64(n.Instr.Op))
			mix(uint64(len(n.SW)))
			for _, o := range n.SW {
				mix(uint64(o.Cycles))
				mix(uint64(o.Class))
			}
			mix(uint64(len(n.HW)))
			for _, o := range n.HW {
				mix(math.Float64bits(o.DelayNS))
				mix(math.Float64bits(o.AreaUM2))
			}
			mix(uint64(len(n.Inputs)))
			for _, src := range n.Inputs {
				mix(uint64(int64(src.Producer)))
				mix(uint64(src.Reg))
			}
			mix(uint64(len(n.DataSuccs)))
			for _, s := range n.DataSuccs {
				mix(uint64(s))
			}
			if n.LiveOut {
				mix(1)
			} else {
				mix(0)
			}
		}
		for _, g := range []*graph.Graph{d.G, d.Data} {
			for u := 0; u < g.Len(); u++ {
				ss := g.Succs(u)
				mix(uint64(len(ss)))
				for _, v := range ss {
					mix(uint64(v))
				}
			}
		}
		d.fp = [2]uint64{h1, h2}
	})
	return d.fp
}

// In returns IN(S): the number of distinct register values the subgraph
// consumes from outside itself — reads of the ISE's register operands.
func (d *DFG) In(s graph.NodeSet) int {
	type key struct {
		producer int
		reg      prog.Reg
	}
	seen := map[key]bool{}
	for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
		for _, src := range d.Nodes[id].Inputs {
			if src.Producer >= 0 && s.Contains(src.Producer) {
				continue // internal value
			}
			k := key{src.Producer, src.Reg}
			if src.Producer >= 0 {
				k.reg = 0 // identified by producer alone
			}
			seen[k] = true
		}
	}
	return len(seen)
}

// Out returns OUT(S): the number of nodes in S whose value escapes S —
// consumed by an outside node or live out of the block. It allocates
// nothing.
func (d *DFG) Out(s graph.NodeSet) int {
	out := 0
	for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
		n := d.Nodes[id]
		escapes := n.LiveOut
		if !escapes {
			for _, succ := range n.DataSuccs {
				if !s.Contains(succ) {
					escapes = true
					break
				}
			}
		}
		if escapes {
			out++
		}
	}
	return out
}

// IOScratch holds the reusable marks of InScratch, the allocation-free form
// of In (Out needs none). A zero IOScratch is ready to use; callers reusing
// one across calls (an explorer's arena) amortize its marks to zero
// steady-state allocations. An IOScratch must not be shared between
// goroutines.
type IOScratch struct {
	// mark era-stamps In's dedup keys (producer node id, or Len()+register
	// for live-ins). Stale marks hold earlier eras and never collide: era
	// only grows.
	mark    []int // arena: era-stamped operand dedup marks
	era     int
	markFor *DFG // DFG mark was sized for
}

// InKeys returns the size of In's dedup key space: one key per node plus
// one per register up to the highest live-in the block reads.
func (d *DFG) InKeys() int {
	n := d.Len()
	keys := n
	for i := range d.Nodes {
		for _, src := range d.Nodes[i].Inputs {
			if src.Producer < 0 && n+int(src.Reg) >= keys {
				keys = n + int(src.Reg) + 1
			}
		}
	}
	return keys
}

// Reserve presizes sc's marks for DFGs of up to keys InKeys and reports
// whether the buffer had to grow. The next InScratch rebinds to its DFG.
//
//alloc:amortized grows the mark buffer only when a larger key space arrives; later calls reslice it
func (sc *IOScratch) Reserve(keys int) bool {
	sc.markFor = nil
	if cap(sc.mark) >= keys {
		sc.mark = sc.mark[:keys]
		return false
	}
	sc.mark = make([]int, keys)
	return true
}

// InScratch is In with sc's era-stamped marks in place of the per-call map.
func (d *DFG) InScratch(s graph.NodeSet, sc *IOScratch) int {
	n := d.Len()
	if sc.markFor != d {
		sc.Reserve(d.InKeys())
		sc.markFor = d
	}
	sc.era++
	era := sc.era
	in := 0
	for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
		for _, src := range d.Nodes[id].Inputs {
			if src.Producer >= 0 && s.Contains(src.Producer) {
				continue // internal value
			}
			idx := n + int(src.Reg)
			if src.Producer >= 0 {
				idx = src.Producer // identified by producer alone
			}
			if sc.mark[idx] != era {
				sc.mark[idx] = era
				in++
			}
		}
	}
	return in
}

// closure returns G's closure, building it on first use.
//
//alloc:amortized builds the closure once per DFG under clOnce; every later call returns it
func (d *DFG) closure() *graph.Closure {
	d.clOnce.Do(func() {
		c, err := graph.NewClosure(d.G)
		if err != nil {
			panic("dfg: cyclic DFG " + d.Name)
		}
		d.cl = c
	})
	return d.cl
}

// Topo returns the topological order of G, identical to G.TopoOrder's and
// computed once per DFG. The returned slice must not be modified.
func (d *DFG) Topo() []int { return d.closure().Order() }

// TopoPos returns each node's index in Topo. The returned slice must not be
// modified.
func (d *DFG) TopoPos() []int { return d.closure().Pos() }

// SortTopo sorts members in place by topological position. It is an
// insertion sort: member lists are small and nearly sorted already (node ids
// follow program order), and unlike sort.Slice it allocates nothing.
func (d *DFG) SortTopo(members []int) {
	pos := d.TopoPos()
	for i := 1; i < len(members); i++ {
		v := members[i]
		j := i - 1
		for j >= 0 && pos[members[j]] > pos[v] {
			members[j+1] = members[j]
			j--
		}
		members[j+1] = v
	}
}

// IsConvex reports whether S is convex in the full dependence graph. It is
// answered from the DFG's closure and allocates nothing; graph.IsConvex is
// the traversal it agrees with.
func (d *DFG) IsConvex(s graph.NodeSet) bool { return d.closure().Violator(s) < 0 }

// ConvexViolator returns the lowest-numbered node outside S that lies on a
// path between two members of S — G.ConvexViolators(S)[0] — or -1 when S is
// convex.
func (d *DFG) ConvexViolator(s graph.NodeSet) int { return d.closure().Violator(s) }

// AncestorsIn returns the members of S that have a path to node v.
func (d *DFG) AncestorsIn(v int, s graph.NodeSet) graph.NodeSet {
	return d.closure().AncestorsIn(v, s)
}

// Reaches reports whether any node of from has a path to any node of to.
func (d *DFG) Reaches(from, to graph.NodeSet) bool {
	c := d.closure()
	for v := from.Next(0); v >= 0; v = from.Next(v + 1) {
		if c.Reaches(v, to) {
			return true
		}
	}
	return false
}

// ReachesFromNode reports whether node v has a path to any node of to. It is
// the allocation-free single-source form of Reaches, one row intersection in
// the DFG's closure, used by arena-style callers that hold group members as
// index slices rather than NodeSets.
func (d *DFG) ReachesFromNode(v int, to graph.NodeSet) bool {
	return d.closure().Reaches(v, to)
}

// Interlocked reports whether two node sets are mutually dependent — each
// reaches the other — which makes issuing both atomically impossible even
// when each set is individually convex.
func (d *DFG) Interlocked(a, b graph.NodeSet) bool {
	return d.Reaches(a, b) && d.Reaches(b, a)
}

// AllEligible reports whether every node of S may join an ISE.
func (d *DFG) AllEligible(s graph.NodeSet) bool {
	for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
		if !d.Nodes[id].ISEEligible() {
			return false
		}
	}
	return true
}

// CriticalPathLen returns the longest dependence chain length in
// instructions (every node weighted 1) — the floor on execution cycles at
// unit latency regardless of issue width.
func (d *DFG) CriticalPathLen() int {
	if d.Len() == 0 {
		return 0
	}
	w := make([]float64, d.Len())
	for i := range w {
		w[i] = 1
	}
	dist := d.G.LongestPath(w)
	best := 0.0
	for _, v := range dist {
		if v > best {
			best = v
		}
	}
	return int(best)
}

// String renders the DFG with one line per node.
func (d *DFG) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dfg %s (weight %d)\n", d.Name, d.Weight)
	for _, n := range d.Nodes {
		fmt.Fprintf(&sb, "  n%d: %-28s", n.ID, n.Instr.String())
		if len(n.HW) > 0 {
			fmt.Fprintf(&sb, " hw×%d", len(n.HW))
		}
		if n.LiveOut {
			sb.WriteString(" live-out")
		}
		if succs := d.G.Succs(n.ID); len(succs) > 0 {
			fmt.Fprintf(&sb, " -> %v", succs)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BuildAll builds the DFG of every block listed in blocks, using the
// program's liveness and the profile weights.
func BuildAll(p *prog.Program, blocks []int, weights []uint64) []*DFG {
	lv := prog.ComputeLiveness(p)
	out := make([]*DFG, 0, len(blocks))
	for _, bi := range blocks {
		var w uint64 = 1
		if bi < len(weights) {
			w = weights[bi]
		}
		out = append(out, Build(p, bi, w, lv.LiveOut[bi]))
	}
	return out
}
