package graph

import (
	"fmt"
	"math/bits"
)

// Closure is the transitive closure of an acyclic graph together with its
// topological order, answering convexity and reachability questions by
// bitwise row intersections instead of traversals. It is a snapshot: edges
// added to the graph after NewClosure are not reflected. A Closure is
// read-only after construction and safe for concurrent use.
type Closure struct {
	n, words int
	// rows holds two n×words bit matrices in one allocation: descendant
	// rows first (row v = nodes reachable from v, excluding v), ancestor
	// rows after (row v = nodes reaching v, excluding v).
	rows  []uint64
	order []int // TopoOrder's order
	pos   []int // node -> index in order
}

// NewClosure builds the closure of g in O(E·⌈n/64⌉) word operations and
// 2·n·⌈n/64⌉ words of storage. It returns TopoOrder's error if g is cyclic.
func NewClosure(g *Graph) (*Closure, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.Len()
	words := (n + 63) / 64
	c := &Closure{n: n, words: words, rows: make([]uint64, 2*n*words), order: order, pos: make([]int, n)}
	for i, v := range order {
		c.pos[v] = i
	}
	// Descendants close over successors in reverse topological order, and
	// ancestors over predecessors in topological order, so every row read
	// is already final.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		row := c.desc(v)
		for _, w := range g.succs[v] {
			row[w/64] |= 1 << uint(w%64)
			orRow(row, c.desc(w))
		}
	}
	for _, v := range order {
		row := c.anc(v)
		for _, u := range g.preds[v] {
			row[u/64] |= 1 << uint(u%64)
			orRow(row, c.anc(u))
		}
	}
	return c, nil
}

func orRow(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

func (c *Closure) desc(v int) []uint64 { return c.rows[v*c.words : (v+1)*c.words] }

func (c *Closure) anc(v int) []uint64 {
	off := (c.n + v) * c.words
	return c.rows[off : off+c.words]
}

// Order returns the graph's topological order, identical to TopoOrder's.
// The returned slice must not be modified.
func (c *Closure) Order() []int { return c.order }

// Pos returns each node's index in Order. The returned slice must not be
// modified.
func (c *Closure) Pos() []int { return c.pos }

// checkMembers panics if s holds a node id at or beyond the closure's node
// count, as the traversal queries do, rather than leave it to whichever row
// lookup the id happens to hit.
func (c *Closure) checkMembers(s NodeSet) {
	for w := c.n / 64; w < len(s.bits); w++ {
		word := s.bits[w]
		if w == c.n/64 {
			word &^= 1<<uint(c.n%64) - 1
		}
		if word != 0 {
			panic(fmt.Sprintf("graph: node %d out of range [0,%d)", w*64+bits.TrailingZeros64(word), c.n))
		}
	}
}

// Violator returns the lowest-numbered node outside s that lies on a path
// between two members of s, or -1 when s is convex. It equals
// ConvexViolators(s)[0], agrees with IsConvex, and allocates nothing: a node
// is a violator iff it is both a descendant and an ancestor of members and
// not a member itself.
func (c *Closure) Violator(s NodeSet) int {
	c.checkMembers(s)
	for w := 0; w < c.words; w++ {
		var down, up uint64
		for mw, word := range s.bits {
			for word != 0 {
				u := mw*64 + bits.TrailingZeros64(word)
				word &= word - 1
				down |= c.rows[u*c.words+w]
				up |= c.rows[(c.n+u)*c.words+w]
			}
		}
		var in uint64
		if w < len(s.bits) {
			in = s.bits[w]
		}
		if v := down & up &^ in; v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// Reaches reports whether node v has a path to any node of to.
func (c *Closure) Reaches(v int, to NodeSet) bool {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, c.n))
	}
	row := c.desc(v)
	for w := 0; w < len(row) && w < len(to.bits); w++ {
		if row[w]&to.bits[w] != 0 {
			return true
		}
	}
	return false
}

// AncestorsInto sets dst to the members of s that have a path to node v,
// reusing dst's bitmap when it is large enough.
func (c *Closure) AncestorsInto(dst *NodeSet, v int, s NodeSet) {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, c.n))
	}
	dst.Reset(c.n)
	for w, word := range c.anc(v) {
		if w < len(s.bits) {
			dst.bits[w] = word & s.bits[w]
		}
	}
	dst.recount()
}
