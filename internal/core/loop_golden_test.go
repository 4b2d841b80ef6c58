package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/randprog"
)

// loopGoldenDigest is the SHA-256 of every explored result's accepted ISEs
// (members, options, SavingCycles), cycle counts and loop accounting
// (Rounds, Iterations) over loopGoldenBlocks, both explorers and both
// machines. results_full.txt pins the published numbers but not Rounds or
// Iterations, so a round loop that runs one iteration more or less, or a
// stop test that moved, changes this digest even when no ISE moves.
const loopGoldenDigest = "144e8d09221230205f09c90483dffdb2847a535dcc7dd2ab7c314433a5b5d4d0"

// loopGoldenBlocks are the three hottest O3 blocks of the paper's seven
// kernels plus 24 random blocks.
func loopGoldenBlocks(t *testing.T) []*dfg.DFG {
	t.Helper()
	var ds []*dfg.DFG
	for _, name := range bench.Names() {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			t.Fatal(err)
		}
		prof, err := bm.Run()
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 3), prof.BlockCounts)...)
	}
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 24; i++ {
		ds = append(ds, randprog.DFG(r, randprog.Config{Ops: 12 + 2*i, MemFrac: 0.15, MultFrac: 0.05}))
	}
	return ds
}

func hashResult(h hash.Hash, label string, res *core.Result) {
	fmt.Fprintf(h, "%s base=%d final=%d rounds=%d iters=%d\n",
		label, res.BaseCycles, res.FinalCycles, res.Rounds, res.Iterations)
	for _, ise := range res.ISEs {
		fmt.Fprintf(h, "  ise saving=%d", ise.SavingCycles)
		for _, v := range ise.Nodes.Values() {
			fmt.Fprintf(h, " n%d/o%d", v, ise.Option[v])
		}
		fmt.Fprintln(h)
	}
}

// TestLoopAccountingGolden pins both explorers' answers and loop
// accounting on a fixed block set under FastParams, whose 25-iteration cap
// binds in many rounds.
func TestLoopAccountingGolden(t *testing.T) {
	ctx := context.Background()
	p := core.FastParams()
	h := sha256.New()
	for _, cfg := range []machine.Config{machine.New(2, 4, 2), machine.New(4, 6, 3)} {
		for i, d := range loopGoldenBlocks(t) {
			mi, err := core.Explore(ctx, d, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, fmt.Sprintf("MI %s %d %s", cfg.Name, i, d.Name), mi)
			si, err := baseline.ExploreSharedCtx(ctx, d, cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, fmt.Sprintf("SI %s %d %s", cfg.Name, i, d.Name), si)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != loopGoldenDigest {
		t.Fatalf("loop accounting digest %s, want %s", got, loopGoldenDigest)
	}
}
