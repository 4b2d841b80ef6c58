package core

import "repro/internal/dfg"

// Arena warmup amortization (DESIGN.md §13): a flow run explores its blocks
// from hottest to coldest, so a per-worker explorer acquired for a small
// block and later rebound to a bigger one regrows half its arenas — the
// "+11% Headline allocs" regression ROADMAP records against the per-block
// pool. Scratch.Prewarm computes the arena bounds of the largest block up
// front and acquire presizes every counter-tracked arena to those bounds, so
// a worker pays warmup once for the whole run regardless of the order blocks
// reach it.

// arenaBounds are the presize bounds DFGs impose on an explorer: node count,
// dependence edges, total option-table entries, the widest per-node option
// row, and the IN-counting mark space (dfg.InKeys).
type arenaBounds struct {
	nodes, edges, opts, row, ioNeed int
}

// boundsOf returns the bounds one DFG imposes.
func boundsOf(d *dfg.DFG) arenaBounds {
	b := arenaBounds{nodes: d.Len(), edges: d.G.NumEdges(), ioNeed: d.InKeys()}
	for _, node := range d.Nodes {
		opts := len(node.SW) + len(node.HW)
		b.opts += opts
		b.row = max(b.row, opts)
	}
	return b
}

// union returns bounds covering both b and o.
func (b arenaBounds) union(o arenaBounds) arenaBounds {
	return arenaBounds{
		nodes: max(b.nodes, o.nodes), edges: max(b.edges, o.edges),
		opts: max(b.opts, o.opts), row: max(b.row, o.row), ioNeed: max(b.ioNeed, o.ioNeed),
	}
}

// presize grows every counter-tracked arena of the explorer to the given
// bounds. Growing here counts as ordinary warmup (the grow helpers increment
// ise_explore_arena_grows_total); the payoff is that every later exploration
// of a DFG within the bounds reslices warm memory and grows nothing — the
// property TestPrewarmedExploreGrowsNoArenas pins. Reserving the option
// tables and the I/O marks unbinds them, so the next Seed/InScratch rebuilds
// their structure over the (possibly replaced) arrays; the rebuild is pure
// reslicing once the arrays are warm.
//
//alloc:amortized prewarm pass; allocates only while arenas grow to the run's largest block
func (e *explorer) presize(b arenaBounds) {
	n := b.nodes
	e.fixedGroupOf = grow(e.fixedGroupOf, n)
	e.sp = grow(e.sp, n)
	if e.io.Reserve(b.ioNeed) {
		obsExploreArenaGrows.Inc()
	}
	e.unitOf = grow(e.unitOf, n)
	e.unitMark = grow(e.unitMark, n)
	e.unitIndeg0 = grow(e.unitIndeg0, n)
	e.wres.chosen = grow(e.wres.chosen, n)
	e.wres.orderPos = grow(e.wres.orderPos, n)
	e.wres.groupOf = grow(e.wres.groupOf, n)
	e.wres.depthNS = grow(e.wres.depthNS, n)
	e.indeg = grow(e.indeg, n)
	e.doneCycle = grow(e.doneCycle, n)
	e.issueCycle = grow(e.issueCycle, n)
	e.issued = grow(e.issued, n)
	e.groupNext = grow(e.groupNext, n)
	e.cFinalOf = grow(e.cFinalOf, n)
	e.cOrder = grow(e.cOrder, n)
	e.cDown = grow(e.cDown, n)
	e.cUp = grow(e.cUp, n)
	e.asap = grow(e.asap, n)
	e.tail = grow(e.tail, n)
	e.solo = grow(e.solo, n)
	e.sh.presize(n)
	e.meter.presize(n, b.edges, b.row)
	// At most n components, each a set over n nodes.
	e.reserveComps(n)
	comps := e.comps[:n]
	for i := range comps {
		comps[i].Reset(n)
	}
	e.comps = comps[:0]
	e.compOf = grow(e.compOf, n)
	e.compStack = grow(e.compStack, n)[:0]
	e.vsSet.Reset(n)
	e.compMembers = grow(e.compMembers, n)[:0]
	if e.tab.Reserve(n, b.opts, b.row) {
		obsExploreArenaGrows.Inc()
	}
}
