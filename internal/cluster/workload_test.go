package cluster

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
)

// TestBuildDFGsSharesExecutedBlockDFGs checks that a registry workload's
// hot-block DFGs are the benchmark's shared executed-block DFGs, and that
// each equals, by fingerprint, weight and block, the hot-block DFG a fresh
// profile and dfg.BuildAll over the hot blocks give — what a fleet job
// explored before the artifacts were shared.
func TestBuildDFGsSharesExecutedBlockDFGs(t *testing.T) {
	for _, name := range []string{"adpcm", "crc32"} {
		wl := Workload{Bench: name, Hot: 3}
		ds, err := wl.BuildDFGs()
		if err != nil {
			t.Fatal(err)
		}
		bm, err := bench.Get(name, wl.optLevel())
		if err != nil {
			t.Fatal(err)
		}
		executed, err := bm.DFGs()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := bm.Run()
		if err != nil {
			t.Fatal(err)
		}
		fresh := dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, wl.hot()), prof.BlockCounts)
		if len(ds) != len(fresh) || len(ds) == 0 {
			t.Fatalf("%s: %d hot DFGs, fresh build %d", name, len(ds), len(fresh))
		}
		for i, d := range ds {
			var shared *dfg.DFG
			for _, e := range executed {
				if e.BlockIndex == d.BlockIndex {
					shared = e
				}
			}
			if d != shared {
				t.Errorf("%s hot DFG %d (%s) is not the shared executed-block DFG", name, i, d.Name)
			}
			f := fresh[i]
			if d.Fingerprint() != f.Fingerprint() || d.Weight != f.Weight || d.BlockIndex != f.BlockIndex {
				t.Errorf("%s hot DFG %d: shared %s (block %d, weight %d) differs from fresh %s (block %d, weight %d)",
					name, i, d.Name, d.BlockIndex, d.Weight, f.Name, f.BlockIndex, f.Weight)
			}
		}
	}
}
