package core

import "repro/internal/obs"

// Arena helpers for the explorer's reusable scratch (DESIGN.md §13). Like
// the scheduling kernel's, each returns a slice of length n backed by buf's
// array when it is large enough, allocating only while the arena warms up to
// its workload. Contents are unspecified; callers overwrite every element
// they read.

var obsExploreArenaGrows = obs.Default.Counter("ise_explore_arena_grows_total",
	"Explorer arena buffer (re)allocations — nonzero only while per-worker arenas warm up to their DFG.")

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		obsExploreArenaGrows.Inc()
		return make([]int, n)
	}
	return buf[:n]
}

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		obsExploreArenaGrows.Inc()
		return make([]float64, n)
	}
	return buf[:n]
}

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		obsExploreArenaGrows.Inc()
		return make([]bool, n)
	}
	return buf[:n]
}
