package flow_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/selection"
)

// gridPoint is one design point of perfbench's flow-match grid.
type gridPoint struct {
	bench string
	cfg   machine.Config
	seed  int64
	algo  flow.Algorithm
}

// flowMatchGrid returns the flow-match grid: crc32/O3 on every machine at
// ACO seeds 1 and 2, adpcm/O3 on one machine per issue width at seed 1,
// each under MI and SI.
func flowMatchGrid() []gridPoint {
	var g []gridPoint
	ms := machine.Configs()
	for _, seed := range []int64{1, 2} {
		for _, cfg := range ms {
			g = append(g, gridPoint{"crc32", cfg, seed, flow.MI}, gridPoint{"crc32", cfg, seed, flow.SI})
		}
	}
	for _, m := range []int{0, 2, 4} {
		g = append(g, gridPoint{"adpcm", ms[m], 1, flow.MI}, gridPoint{"adpcm", ms[m], 1, flow.SI})
	}
	return g
}

// designPoint builds bm's pool for gp and evaluates it at the unconstrained
// point, the area caps of Fig. 5.2.1 and the ISE counts of Fig. 5.2.2,
// rendering every report's cycles, area and selected ISEs.
func designPoint(bm *bench.Benchmark, gp gridPoint) (string, error) {
	p := core.FastParams()
	p.Seed = gp.seed
	pool, err := flow.BuildPool(bm, flow.Options{Machine: gp.cfg, Params: p, Algorithm: gp.algo, HotBlocks: 3})
	if err != nil {
		return "", err
	}
	points := []selection.Constraints{{}}
	for _, a := range experiments.AreaCaps {
		points = append(points, selection.Constraints{MaxAreaUM2: a})
	}
	for _, n := range experiments.ISECounts {
		points = append(points, selection.Constraints{MaxISEs: n})
	}
	var b strings.Builder
	for _, c := range points {
		rep, err := pool.Evaluate(c)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%v %v->%v %v:", c, rep.BaseCycles, rep.FinalCycles, rep.AreaUM2)
		for _, cand := range rep.Selected {
			fmt.Fprintf(&b, " %s%v/%v", cand.DFG.Name, cand.ISE.Nodes, cand.Gain)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// freshBenchmark returns a private copy of bm with its own, not yet
// computed, profile and DFGs: its Profile runs bm.Run afresh and its DFGs
// call dfg.BuildAll afresh.
func freshBenchmark(bm *bench.Benchmark) *bench.Benchmark {
	return &bench.Benchmark{Name: bm.Name, Opt: bm.Opt, Prog: bm.Prog, Setup: bm.Setup, Check: bm.Check}
}

// TestSharedArtifactsConcurrentGrid builds and evaluates the flow-match
// grid's 30 design points concurrently, across machines and MI/SI, all on
// the shared per-(benchmark, opt) profile and DFGs (make race runs it under
// the race detector). Afterwards the shared artifacts are unchanged — every
// DFG equals a fresh build field by field and by fingerprint, the profile
// equals a fresh run — every report equals the one the same design point
// gives on fresh artifacts, and bench.Get, Profile and DFGs still return
// the same pointers.
func TestSharedArtifactsConcurrentGrid(t *testing.T) {
	grid := flowMatchGrid()
	type shared struct {
		bm   *bench.Benchmark
		fp   [][2]uint64
		dfgs []*dfg.DFG
	}
	arts := map[string]*shared{}
	for _, name := range []string{"crc32", "adpcm"} {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			t.Fatal(err)
		}
		ds, err := bm.DFGs()
		if err != nil {
			t.Fatal(err)
		}
		s := &shared{bm: bm, dfgs: slices.Clone(ds)}
		for _, d := range ds {
			s.fp = append(s.fp, d.Fingerprint())
		}
		arts[name] = s
	}

	got := make([]string, len(grid))
	errs := make([]error, len(grid))
	var wg sync.WaitGroup
	for i, gp := range grid {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = designPoint(arts[gp.bench].bm, gp)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("design point %d: %v", i, err)
		}
	}

	for name, s := range arts {
		fresh := freshBenchmark(s.bm)
		freshProf, err := fresh.Profile()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := s.bm.Profile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prof, freshProf) {
			t.Errorf("%s: shared profile changed: %d dynamic instructions, fresh run %d", name, prof.DynInstrs, freshProf.DynInstrs)
		}
		freshDFGs, err := fresh.DFGs()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := s.bm.DFGs()
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != len(s.dfgs) || len(ds) != len(freshDFGs) {
			t.Fatalf("%s: %d shared DFGs, %d before, %d fresh", name, len(ds), len(s.dfgs), len(freshDFGs))
		}
		for k, d := range ds {
			f := freshDFGs[k]
			switch {
			case d != s.dfgs[k]:
				t.Errorf("%s: DFGs()[%d] is a new pointer", name, k)
			case d.Fingerprint() != s.fp[k] || d.Fingerprint() != f.Fingerprint():
				t.Errorf("%s %s: fingerprint moved", name, d.Name)
			case d.Name != f.Name || d.BlockIndex != f.BlockIndex || d.Weight != f.Weight ||
				!reflect.DeepEqual(d.Nodes, f.Nodes) || !reflect.DeepEqual(d.G, f.G) || !reflect.DeepEqual(d.Data, f.Data):
				t.Errorf("%s %s: shared DFG differs from a fresh build", name, d.Name)
			}
		}
		again, err := bench.Get(name, "O3")
		if err != nil {
			t.Fatal(err)
		}
		if prof2, _ := again.Profile(); again != s.bm || prof2 != prof {
			t.Errorf("%s: bench.Get or Profile returned a new pointer", name)
		}
		hot, err := again.HotDFGs(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hot {
			if !slices.Contains(ds, h) {
				t.Errorf("%s: hot DFG %s is not a shared executed-block DFG", name, h.Name)
			}
		}
	}

	for i, gp := range grid {
		want, err := designPoint(freshBenchmark(arts[gp.bench].bm), gp)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%s/O3 %s %s seed %d: shared artifacts gave\n%s\nfresh ones\n%s", gp.bench, gp.cfg.Name, gp.algo, gp.seed, got[i], want)
		}
	}
}
