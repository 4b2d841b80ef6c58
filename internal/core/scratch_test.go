package core

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/machine"
)

// TestExploreSharedScratchDeterminism pins the Scratch-pooling contract
// promised by ResumeOptions.Scratch: explorations drawing worker scratch
// from a shared pool — including scratch warmed on a *different* DFG —
// return byte-identical results to private-pool explorations, at every
// worker count. This is the cross-block reuse path flow.BuildPool drives.
func TestExploreSharedScratchDeterminism(t *testing.T) {
	d1 := hotBenchDFG(t, "crc32", "O3")
	d2 := hotBenchDFG(t, "bitcount", "O3")
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 3

	want1, _, err := ExploreResumable(t.Context(), d1, cfg, p, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want2, _, err := ExploreResumable(t.Context(), d2, cfg, p, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		pw := p
		pw.Workers = workers
		scr := NewScratch()
		// Interleave the two DFGs twice so reused scratch has always been
		// warmed on the other DFG at least once.
		for round := 0; round < 2; round++ {
			got1, _, err := ExploreResumable(t.Context(), d1, cfg, pw, ResumeOptions{Scratch: scr})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "shared scratch d1", got1, want1)
			got2, _, err := ExploreResumable(t.Context(), d2, cfg, pw, ResumeOptions{Scratch: scr})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "shared scratch d2", got2, want2)
		}
	}
}

// TestReseededRandMatchesFresh pins the restart generator's reuse: a worker
// scratch's generator, re-seeded after it served another restart, yields
// the first 10k draws and the draw count of a fresh aco.NewCountedRand on
// the same seed, and re-seeding allocates nothing.
func TestReseededRandMatchesFresh(t *testing.T) {
	ws := &workerScratch{}
	used, _ := ws.seededRand(99)
	for i := 0; i < 777; i++ {
		used.Intn(13)
	}
	for _, seed := range []int64{1, 1 + 7919, 1 + 3*7919, -5} {
		got, gotSrc := ws.seededRand(seed)
		want, wantSrc := aco.NewCountedRand(seed)
		for i := 0; i < 10000; i++ {
			var g, w float64
			switch i % 3 {
			case 0:
				g, w = float64(got.Int63()), float64(want.Int63())
			case 1:
				g, w = float64(got.Intn(1000)), float64(want.Intn(1000))
			default:
				g, w = got.Float64(), want.Float64()
			}
			if g != w {
				t.Fatalf("seed %d draw %d: re-seeded %v, fresh %v", seed, i, g, w)
			}
		}
		if gotSrc.Draws() != wantSrc.Draws() {
			t.Fatalf("seed %d: re-seeded source counts %d draws, fresh %d", seed, gotSrc.Draws(), wantSrc.Draws())
		}
	}
	if n := testing.AllocsPerRun(100, func() { ws.seededRand(7) }); n != 0 {
		t.Fatalf("re-seeding allocates %v times", n)
	}
}
