package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// NodeSet is a set of node IDs backed by a bitmap, sized for a particular
// graph. All subset-level graph queries take NodeSets.
type NodeSet struct {
	bits []uint64
	n    int
}

// NewNodeSet returns an empty set able to hold IDs in [0, capacity).
func NewNodeSet(capacity int) NodeSet {
	return NodeSet{bits: make([]uint64, (capacity+63)/64)}
}

// NodeSetOf returns a set holding exactly the given IDs.
func NodeSetOf(capacity int, ids ...int) NodeSet {
	s := NewNodeSet(capacity)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set.
func (s *NodeSet) Add(id int) {
	w, b := id/64, uint(id%64)
	if s.bits[w]&(1<<b) == 0 {
		s.bits[w] |= 1 << b
		s.n++
	}
}

// Remove deletes id from the set.
func (s *NodeSet) Remove(id int) {
	w, b := id/64, uint(id%64)
	if s.bits[w]&(1<<b) != 0 {
		s.bits[w] &^= 1 << b
		s.n--
	}
}

// Contains reports membership of id.
func (s NodeSet) Contains(id int) bool {
	if id < 0 || id/64 >= len(s.bits) {
		return false
	}
	return s.bits[id/64]&(1<<uint(id%64)) != 0
}

// Len returns the number of members.
func (s NodeSet) Len() int { return s.n }

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool { return s.n == 0 }

// Values returns the members in increasing order.
func (s NodeSet) Values() []int {
	out := make([]int, 0, s.n)
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w*64+b)
			word &^= 1 << uint(b)
		}
	}
	return out
}

// Next returns the smallest member not below from, or -1 when there is
// none. It walks the members in increasing order without allocating:
//
//	for v := s.Next(0); v >= 0; v = s.Next(v + 1) { ... }
//
//alloc:free
func (s NodeSet) Next(from int) int {
	if from < 0 {
		from = 0
	}
	w := from / 64
	if w >= len(s.bits) {
		return -1
	}
	word := s.bits[w] & (^uint64(0) << uint(from%64))
	for word == 0 {
		w++
		if w == len(s.bits) {
			return -1
		}
		word = s.bits[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}

// AppendValues appends the members in increasing order to dst and returns
// the extended slice. It is the allocation-free counterpart of Values for
// arena-style callers that own a reusable buffer.
func (s NodeSet) AppendValues(dst []int) []int {
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*64+b)
			word &^= 1 << uint(b)
		}
	}
	return dst
}

// Reset reinitializes s in place to an empty set able to hold IDs in
// [0, capacity), reusing the backing array when it is large enough. It is the
// allocation-free counterpart of NewNodeSet for arena-style reuse.
//
//alloc:amortized grows the backing bitmap only when capacity increases; steady-state resets reuse it
func (s *NodeSet) Reset(capacity int) {
	w := (capacity + 63) / 64
	if cap(s.bits) < w {
		s.bits = make([]uint64, w)
	} else {
		s.bits = s.bits[:w]
		for i := range s.bits {
			s.bits[i] = 0
		}
	}
	s.n = 0
}

// CopyFrom makes s an independent copy of t, reusing s's backing array
// when it is large enough: the allocation-free counterpart of Clone for
// arena-style reuse.
//
//alloc:amortized grows the backing bitmap only when a larger set arrives; later copies reuse it
func (s *NodeSet) CopyFrom(t NodeSet) {
	if cap(s.bits) < len(t.bits) {
		s.bits = make([]uint64, len(t.bits))
	} else {
		s.bits = s.bits[:len(t.bits)]
	}
	copy(s.bits, t.bits)
	s.n = t.n
}

// Intersects reports whether s and t share at least one member, without
// allocating (unlike Intersect, which clones).
func (s NodeSet) Intersects(t NodeSet) bool {
	n := len(s.bits)
	if len(t.bits) < n {
		n = len(t.bits)
	}
	for w := 0; w < n; w++ {
		if s.bits[w]&t.bits[w] != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the set.
func (s NodeSet) Clone() NodeSet {
	c := NodeSet{bits: make([]uint64, len(s.bits)), n: s.n}
	copy(c.bits, s.bits)
	return c
}

// Union returns a new set containing members of either set. Both sets must
// have the same capacity.
func (s NodeSet) Union(t NodeSet) NodeSet {
	c := s.Clone()
	for w := range t.bits {
		c.bits[w] |= t.bits[w]
	}
	c.recount()
	return c
}

// UnionWith adds every member of t to s in place, a word-wise OR. t must
// not be larger than s's capacity.
func (s *NodeSet) UnionWith(t NodeSet) {
	for w, word := range t.bits {
		s.bits[w] |= word
	}
	s.recount()
}

// SubtractWith removes every member of t from s in place, a word-wise
// AND NOT: the allocation-free counterpart of Subtract.
func (s *NodeSet) SubtractWith(t NodeSet) {
	for w := 0; w < len(s.bits) && w < len(t.bits); w++ {
		s.bits[w] &^= t.bits[w]
	}
	s.recount()
}

// Intersect returns a new set containing members of both sets.
func (s NodeSet) Intersect(t NodeSet) NodeSet {
	c := s.Clone()
	for w := range t.bits {
		c.bits[w] &= t.bits[w]
	}
	for w := len(t.bits); w < len(c.bits); w++ {
		c.bits[w] = 0
	}
	c.recount()
	return c
}

// Subtract returns a new set containing members of s not in t.
func (s NodeSet) Subtract(t NodeSet) NodeSet {
	c := s.Clone()
	n := len(t.bits)
	if len(c.bits) < n {
		n = len(c.bits)
	}
	for w := 0; w < n; w++ {
		c.bits[w] &^= t.bits[w]
	}
	c.recount()
	return c
}

// Equal reports whether both sets have identical membership.
func (s NodeSet) Equal(t NodeSet) bool {
	if s.n != t.n {
		return false
	}
	short, long := s.bits, t.bits
	if len(short) > len(long) {
		short, long = long, short
	}
	for w := range short {
		if short[w] != long[w] {
			return false
		}
	}
	for w := len(short); w < len(long); w++ {
		if long[w] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is also in t.
func (s NodeSet) SubsetOf(t NodeSet) bool {
	for w := range s.bits {
		var tb uint64
		if w < len(t.bits) {
			tb = t.bits[w]
		}
		if s.bits[w]&^tb != 0 {
			return false
		}
	}
	return true
}

func (s *NodeSet) recount() {
	n := 0
	for _, word := range s.bits {
		n += bits.OnesCount64(word)
	}
	s.n = n
}

// String renders the set as "{a, b, c}" with sorted members.
func (s NodeSet) String() string {
	vals := s.Values()
	sort.Ints(vals)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
