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

	reachMu sync.Mutex
	// reach holds lazy per-node descendant sets; guarded by reachMu.
	reach []graph.NodeSet
	// reachDone marks filled entries of reach; guarded by reachMu.
	reachDone []bool

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
	for _, id := range s.Values() {
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
// consumed by an outside node or live out of the block.
func (d *DFG) Out(s graph.NodeSet) int { return d.out(s, s.Values()) }

// IOScratch holds reusable buffers for the allocation-free IN/OUT counters
// InScratch and OutScratch, as graph.Scratch does for IsConvexScratch. A
// zero IOScratch is ready to use; callers reusing one across calls (an
// explorer's arena) amortize its buffers to zero steady-state allocations.
// An IOScratch must not be shared between goroutines.
type IOScratch struct {
	// mark era-stamps In's dedup keys (producer node id, or Len()+register
	// for live-ins). Stale marks hold earlier eras and never collide: era
	// only grows.
	mark    []int // arena: era-stamped operand dedup marks
	members []int // arena: member extraction buffer
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
	members := s.AppendValues(sc.members[:0])
	sc.members = members
	in := 0
	for _, id := range members {
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

// OutScratch is Out with sc's member buffer in place of a fresh slice.
func (d *DFG) OutScratch(s graph.NodeSet, sc *IOScratch) int {
	sc.members = s.AppendValues(sc.members[:0])
	return d.out(s, sc.members)
}

// out counts the members of s whose value escapes s.
func (d *DFG) out(s graph.NodeSet, members []int) int {
	out := 0
	for _, id := range members {
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

// IsConvex reports whether S is convex in the full dependence graph.
func (d *DFG) IsConvex(s graph.NodeSet) bool { return d.G.IsConvex(s) }

// descendants returns (and caches) the set of nodes reachable from v.
//
//alloc:amortized memoized per-node reachability; each set is computed once and served from the cache thereafter
func (d *DFG) descendants(v int) graph.NodeSet {
	d.reachMu.Lock()
	defer d.reachMu.Unlock()
	if d.reach == nil {
		d.reach = make([]graph.NodeSet, d.Len())
		d.reachDone = make([]bool, d.Len())
	}
	if !d.reachDone[v] {
		d.reach[v] = d.G.ReachableFrom(v)
		d.reachDone[v] = true
	}
	return d.reach[v]
}

// Reaches reports whether any node of from has a path to any node of to.
func (d *DFG) Reaches(from, to graph.NodeSet) bool {
	for _, v := range from.Values() {
		if d.descendants(v).Intersects(to) {
			return true
		}
	}
	return false
}

// ReachesFromNode reports whether node v has a path to any node of to. It is
// the allocation-free single-source form of Reaches (the descendant set of v
// is computed once per DFG and cached), used by arena-style callers that hold
// group members as index slices rather than NodeSets.
func (d *DFG) ReachesFromNode(v int, to graph.NodeSet) bool {
	return d.descendants(v).Intersects(to)
}

// Interlocked reports whether two node sets are mutually dependent — each
// reaches the other — which makes issuing both atomically impossible even
// when each set is individually convex.
func (d *DFG) Interlocked(a, b graph.NodeSet) bool {
	return d.Reaches(a, b) && d.Reaches(b, a)
}

// AllEligible reports whether every node of S may join an ISE.
func (d *DFG) AllEligible(s graph.NodeSet) bool {
	for _, id := range s.Values() {
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
