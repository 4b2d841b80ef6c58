// Package sched implements instruction scheduling for the multiple-issue
// machine: the per-cycle resource ledger used by the incremental
// Operation-Scheduling of the exploration algorithm (Figs. 4.3.3/4.3.4 of
// the paper), and a full list scheduler that evaluates a DFG under a given
// implementation-option assignment, identifying the critical path.
package sched

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
)

// Kind says whether a node executes in software (core FU) or hardware
// (inside an ISE on the ASFU).
type Kind uint8

// Implementation kinds.
const (
	KindSW Kind = iota
	KindHW
)

// NodeChoice is the implementation decision for one DFG node.
type NodeChoice struct {
	Kind Kind
	// Opt indexes the node's SW or HW option table according to Kind.
	Opt int
	// Group identifies the ISE instruction this node belongs to when
	// Kind == KindHW. Nodes sharing a Group issue as one instruction.
	Group int
}

// Assignment maps every DFG node to its implementation choice.
type Assignment []NodeChoice

// AllSoftware returns the assignment that runs all n nodes on the core with
// their first software option — the paper's "without ISE" reference point.
func AllSoftware(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = NodeChoice{Kind: KindSW, Opt: 0, Group: -1}
	}
	return a
}

// Key returns a canonical signature of the assignment, suitable as a
// memoization key for schedule evaluation: ListSchedule is a pure function
// of (DFG, Assignment, machine.Config), so two assignments with equal Keys
// schedule to the same length on the same DFG and machine. The encoding is
// positional (one field per node, so node membership of every ISE group is
// captured) and canonicalizes group IDs by first appearance, making the key
// invariant under group renumbering. Hardware option indices are included
// because they select the cell latencies that determine the group's
// pipestage latency.
func (a Assignment) Key() string {
	buf := make([]byte, 0, 4*len(a))
	var gidBuf [remapInline]int
	gids := gidBuf[:0]
	for _, c := range a {
		switch c.Kind {
		case KindSW:
			buf = append(buf, 's')
			buf = strconv.AppendInt(buf, int64(c.Opt), 10)
		case KindHW:
			var g int
			gids, g = canonGroup(gids, c.Group)
			buf = append(buf, 'h')
			buf = strconv.AppendInt(buf, int64(c.Opt), 10)
			buf = append(buf, 'g')
			buf = strconv.AppendInt(buf, int64(g), 10)
		default:
			buf = append(buf, '?')
		}
		buf = append(buf, '.')
	}
	return string(buf)
}

// remapInline is the group-remap capacity kept on the stack by Key and
// KeyHash; assignments with more distinct ISE groups (which never happens in
// practice — groups hold ≥ 2 of the block's nodes) spill to the heap.
const remapInline = 64

// canonGroup maps raw group ID id to its canonical index: the position of its
// first appearance. gids is the first-appearance list so far; a linear scan
// replaces the map the old implementation allocated per call — the number of
// distinct groups is tiny, and the slice lives on the caller's stack.
func canonGroup(gids []int, id int) ([]int, int) {
	for i, g := range gids {
		if g == id {
			return gids, i
		}
	}
	return append(gids, id), len(gids)
}

// KeyHash is a 128-bit canonical signature of an Assignment, the hash-keyed
// counterpart of Key: equal assignments (up to group renumbering) produce
// equal hashes, and the memo caches key on it instead of the string form.
// See DESIGN.md §10 for the collision argument (two independent 64-bit
// multiply-mix chains over the positional token stream; distinct canonical
// assignments collide with probability ~2^-128, far below any attainable
// cache population).
type KeyHash [2]uint64

// KeyHash returns the canonical 128-bit signature of the assignment. It
// encodes exactly the information Key encodes — kind, option index and
// canonical (first-appearance) group index per node, positionally — but
// allocates nothing and never builds a string.
func (a Assignment) KeyHash() KeyHash {
	h0 := uint64(0x243f6a8885a308d3) // pi digits; arbitrary distinct seeds
	h1 := uint64(0x13198a2e03707344)
	var gidBuf [remapInline]int
	gids := gidBuf[:0]
	for _, c := range a {
		var tok uint64
		switch c.Kind {
		case KindSW:
			tok = 1 | uint64(uint32(c.Opt))<<2
		case KindHW:
			var g int
			gids, g = canonGroup(gids, c.Group)
			tok = 2 | uint64(uint32(c.Opt))<<2 | uint64(uint32(g))<<34
		default:
			tok = 3
		}
		// Two independent multiply–mix chains: position sensitivity comes
		// from the multiplier, diffusion from splitmix64's finalizer.
		h0 = h0*0x9e3779b97f4a7c15 + mix64(tok^0xa4093822299f31d0)
		h1 = h1*0xc2b2ae3d27d4eb4f + mix64(tok+0x082efa98ec4e6c89)
	}
	return KeyHash{h0, h1}
}

// mix64 is splitmix64's finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Group is one ISE instruction: a set of hardware-implemented nodes issued
// as a unit.
type Group struct {
	ID    int
	Nodes graph.NodeSet
}

// Groups extracts the ISE groups of the assignment in ascending ID order.
func (a Assignment) Groups(n int) []Group {
	byID := map[int][]int{}
	for i := 0; i < n; i++ {
		if a[i].Kind == KindHW {
			byID[a[i].Group] = append(byID[a[i].Group], i)
		}
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Group, 0, len(ids))
	for _, id := range ids {
		s := graph.NewNodeSet(n)
		for _, v := range byID[id] {
			s.Add(v)
		}
		out = append(out, Group{ID: id, Nodes: s})
	}
	return out
}

// Validate checks that the assignment is structurally sound for d: HW
// choices index real options and group members are connected, eligible and
// convex.
func (a Assignment) Validate(d *dfg.DFG) error {
	if len(a) != d.Len() {
		return fmt.Errorf("sched: assignment covers %d nodes, DFG has %d", len(a), d.Len())
	}
	for i, c := range a {
		n := d.Nodes[i]
		switch c.Kind {
		case KindSW:
			if c.Opt < 0 || c.Opt >= len(n.SW) {
				return fmt.Errorf("sched: node %d sw option %d out of range", i, c.Opt)
			}
		case KindHW:
			if c.Opt < 0 || c.Opt >= len(n.HW) {
				return fmt.Errorf("sched: node %d hw option %d out of range", i, c.Opt)
			}
			if c.Group < 0 {
				return fmt.Errorf("sched: node %d is hardware without a group", i)
			}
		default:
			return fmt.Errorf("sched: node %d has unknown kind %d", i, c.Kind)
		}
	}
	groups := a.Groups(d.Len())
	for _, g := range groups {
		if !d.AllEligible(g.Nodes) {
			return fmt.Errorf("sched: group %d contains an ISE-ineligible node", g.ID)
		}
		if !d.IsConvex(g.Nodes) {
			return fmt.Errorf("sched: group %d is not convex", g.ID)
		}
	}
	// Convexity is per-group; pairs of groups must additionally not be
	// mutually dependent, or neither could issue atomically.
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			if d.Interlocked(groups[i].Nodes, groups[j].Nodes) {
				return fmt.Errorf("sched: groups %d and %d are mutually dependent", groups[i].ID, groups[j].ID)
			}
		}
	}
	return nil
}

// GroupDelayNS returns the critical-path propagation delay (ns) through the
// group's chosen hardware cells — the combinational depth of the ISE
// datapath.
func GroupDelayNS(d *dfg.DFG, nodes graph.NodeSet, a Assignment) float64 {
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
		dist[v] = in + d.Nodes[v].HW[a[v].Opt].DelayNS
		if dist[v] > best {
			best = dist[v]
		}
	}
	return best
}

// GroupAreaUM2 returns the total silicon area of the group's chosen
// hardware cells.
func GroupAreaUM2(d *dfg.DFG, nodes graph.NodeSet, a Assignment) float64 {
	area := 0.0
	for _, v := range nodes.Values() {
		area += d.Nodes[v].HW[a[v].Opt].AreaUM2
	}
	return area
}

// CyclesForDelay converts a combinational delay to whole execution cycles
// (pipestage timing constraint: an ISE occupies ⌈delay/cycle⌉ stages).
func CyclesForDelay(delayNS float64) int {
	c := int(math.Ceil(delayNS / isa.CycleNS))
	if c < 1 {
		c = 1
	}
	return c
}

// GroupCycles returns the execution cycle count of the group.
func GroupCycles(d *dfg.DFG, nodes graph.NodeSet, a Assignment) int {
	return CyclesForDelay(GroupDelayNS(d, nodes, a))
}

// swReads returns the register read-port demand of a software node.
func swReads(d *dfg.DFG, id int) int { return len(d.Nodes[id].Inputs) }

// swWrites returns the register write-port demand of a software node.
func swWrites(d *dfg.DFG, id int) int {
	if _, ok := d.Nodes[id].Instr.Defs(); ok {
		return 1
	}
	return 0
}
