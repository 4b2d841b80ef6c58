package core

import "repro/internal/dfg"

// Arena warmup amortization (DESIGN.md §13): a flow run explores its blocks
// from hottest to coldest, so a per-worker explorer acquired for a small
// block and later rebound to a bigger one regrows half its arenas — the
// "+11% Headline allocs" regression ROADMAP records against the per-block
// pool. Scratch.Prewarm computes the arena bounds of the largest block up
// front and Acquire presizes every counter-tracked arena to those bounds, so
// a worker pays warmup once for the whole run regardless of the order blocks
// reach it.

// arenaBounds derives the presize bounds one DFG imposes on an explorer:
// node count, total option-table entries, the widest per-node option row,
// total edge endpoints (the criticalNodes CSR bound), and the IN-counting
// mark space (dfg.InKeys).
func arenaBounds(d *dfg.DFG) (n, totalOpts, maxRow, edges, ioNeed int) {
	n = d.Len()
	for i := 0; i < n; i++ {
		node := d.Nodes[i]
		opts := len(node.SW) + len(node.HW)
		totalOpts += opts
		if opts > maxRow {
			maxRow = opts
		}
		edges += len(d.G.Succs(i))
	}
	return n, totalOpts, maxRow, edges, d.InKeys()
}

// presize grows every counter-tracked arena of the explorer to the given
// bounds. Growing here counts as ordinary warmup (the grow helpers increment
// ise_explore_arena_grows_total); the payoff is that every later exploration
// of a DFG within the bounds reslices warm memory and grows nothing — the
// property TestScratchPrewarmPinsArenaGrows pins. The per-DFG table and
// I/O-mark bindings are invalidated so the next initTables/InScratch rebuilds
// row structure over the (possibly replaced) backing arrays; the rebuild is
// pure reslicing once the arrays are warm.
//
//alloc:amortized prewarm pass; allocates only while arenas grow to the run's largest block
func (e *explorer) presize(n, totalOpts, maxRow, edges, ioNeed int) {
	e.fixedGroupOf = growInts(e.fixedGroupOf, n)
	e.sp = growFloats(e.sp, n)
	if e.io.Reserve(ioNeed) {
		obsExploreArenaGrows.Inc()
	}
	e.unitOf = growInts(e.unitOf, n)
	e.unitMark = growInts(e.unitMark, n)
	e.unitIndeg0 = growInts(e.unitIndeg0, n)
	e.wres.chosen = growInts(e.wres.chosen, n)
	e.wres.orderPos = growInts(e.wres.orderPos, n)
	e.wres.groupOf = growInts(e.wres.groupOf, n)
	e.wres.depthNS = growFloats(e.wres.depthNS, n)
	e.indeg = growInts(e.indeg, n)
	e.doneCycle = growInts(e.doneCycle, n)
	e.issueCycle = growInts(e.issueCycle, n)
	e.issued = growBools(e.issued, n)
	e.cFinalOf = growInts(e.cFinalOf, n)
	e.cSuccStart = growInts(e.cSuccStart, n+1)
	e.cPredStart = growInts(e.cPredStart, n+1)
	e.cSuccs = growInts(e.cSuccs, edges)
	e.cPreds = growInts(e.cPreds, edges)
	e.cCurA = growInts(e.cCurA, n)
	e.cCurB = growInts(e.cCurB, n)
	e.cIndeg = growInts(e.cIndeg, n)
	e.cOrder = growInts(e.cOrder, n)
	e.cDown = growInts(e.cDown, n)
	e.cUp = growInts(e.cUp, n)
	e.asap = growInts(e.asap, n)
	e.tail = growInts(e.tail, n)
	e.depthF = growFloats(e.depthF, n)
	e.depthI = growInts(e.depthI, n)
	e.hwCycles = growInts(e.hwCycles, maxRow)
	e.hwAreas = growFloats(e.hwAreas, maxRow)
	e.spw = growFloats(e.spw, maxRow)
	e.numSW = growInts(e.numSW, n)
	e.trail = growRows(e.trail, n)
	e.merit = growRows(e.merit, n)
	e.trailBuf = growFloats(e.trailBuf, totalOpts)
	e.meritBuf = growFloats(e.meritBuf, totalOpts)
	// The grown arrays carry unspecified content; unbind the per-DFG caches
	// so the next exploration rebuilds row structure (Reserve unbound the
	// marks).
	e.tablesFor = nil
}
