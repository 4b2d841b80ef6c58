package core

import (
	"repro/internal/arena"
	"repro/internal/obs"
)

var obsExploreArenaGrows = obs.Default.Counter("ise_explore_arena_grows_total",
	"Explorer arena buffer (re)allocations — nonzero only while per-worker arenas warm up to their DFG.")

// grow is arena.Grow for the explorers' reusable scratch (DESIGN.md §13),
// counting each allocation in ise_explore_arena_grows_total.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		obsExploreArenaGrows.Inc()
	}
	return arena.Grow(buf, n)
}
