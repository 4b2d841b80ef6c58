package core

import (
	"testing"

	"repro/internal/dfg"
	"repro/internal/machine"
)

// TestPrewarmedExploreGrowsNoArenas pins the arena-warmup amortization
// contract behind Scratch.Prewarm: once the pool's bounds cover a run's
// largest block and one worker scratch has been presized, explorations over
// any of the announced blocks never grow an explorer arena again — the whole
// warmup cost is front-loaded into Prewarm + first acquire. This is the
// Headline-path fix for the per-(worker, block) warmup tax: flow.BuildPool
// prewarms its shared scratch to the largest hot block before fanning out.
func TestPrewarmedExploreGrowsNoArenas(t *testing.T) {
	big := hotBenchDFG(t, "crc32", "O3")
	small := hotBenchDFG(t, "bitcount", "O3")
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 2
	p.Workers = 1 // one worker scratch, warmed once below

	scr := NewScratch()
	scr.Prewarm(big, small)
	ws := scr.acquire() // presize pays the entire warmup here
	scr.release(ws)

	before := obsExploreArenaGrows.Value()
	for _, d := range []*dfg.DFG{big, small, big} {
		if _, _, err := ExploreResumable(t.Context(), d, cfg, p, ResumeOptions{Scratch: scr}); err != nil {
			t.Fatal(err)
		}
	}
	if after := obsExploreArenaGrows.Value(); after != before {
		t.Fatalf("prewarmed explorations grew arenas %v times; want 0", after-before)
	}
}

// TestPrewarmBoundsMonotonic: announcing a smaller run never shrinks the
// pool's bounds, so scratch stays sized for the biggest consumer.
func TestPrewarmBoundsMonotonic(t *testing.T) {
	big := hotBenchDFG(t, "crc32", "O3")
	small := hotBenchDFG(t, "bitcount", "O3")

	scr := NewScratch()
	scr.Prewarm(big)
	scr.mu.Lock()
	n0 := scr.bounds.nodes
	scr.mu.Unlock()
	scr.Prewarm(small)
	scr.mu.Lock()
	n1 := scr.bounds.nodes
	scr.mu.Unlock()
	if n1 < n0 {
		t.Fatalf("Prewarm shrank node bound: %d -> %d", n0, n1)
	}
	if bn := boundsOf(big).nodes; n0 != bn {
		t.Fatalf("Prewarm bound %d != arenaBounds %d", n0, bn)
	}
}
