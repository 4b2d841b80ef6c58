package merging

// RuledOut runs SubgraphOf's in-ISE pre-search alone: it reports whether
// that search proved that no embedding of b inside a's node set meets merge
// condition 1.
func RuledOut(b, a *Candidate) bool {
	return ruledOut(b, a, condition1(b, a))
}
