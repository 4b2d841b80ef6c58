package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/selection"
)

// reducedSuite keeps test runtime sensible: two benchmarks, two machines,
// fast exploration parameters, and one shared pool cache for the whole test
// package. The figure *shapes* asserted here are the ones the paper reports.
var reducedSuite = sync.OnceValue(func() *Suite {
	s := NewSuite(core.FastParams())
	s.Benchmarks = []string{"crc32", "bitcount"}
	s.OptLevels = []string{"O0", "O3"}
	s.Machines = []machine.Config{machine.New(2, 4, 2), machine.New(3, 6, 3)}
	s.HotBlocks = 2
	return s
})

func TestPoolCaching(t *testing.T) {
	s := reducedSuite()
	a, err := s.Pool("crc32", "O0", s.Machines[0], flow.MI)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Pool("crc32", "O0", s.Machines[0], flow.MI)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("pool not cached")
	}
	if _, err := s.Pool("nope", "O0", s.Machines[0], flow.MI); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestFlowMatchGridExact builds the pools of perfbench's flow-match grid
// and more: crc32/O3 and adpcm/O3 on all six machines, MI and SI,
// FastParams seeds 1 and 2. It evaluates each at the unconstrained point,
// every area cap of Fig. 5.2.1 and every ISE count of Fig. 5.2.2, and
// requires that none of the pools' subgraph searches, merging's or
// replacement's, ran out of budget.
func TestFlowMatchGridExact(t *testing.T) {
	points := []selection.Constraints{{}}
	for _, a := range AreaCaps {
		points = append(points, selection.Constraints{MaxAreaUM2: a})
	}
	for _, n := range ISECounts {
		points = append(points, selection.Constraints{MaxISEs: n})
	}
	for _, seed := range []int64{1, 2} {
		p := core.FastParams()
		p.Seed = seed
		s := NewSuite(p)
		pools := 0
		for _, name := range []string{"crc32", "adpcm"} {
			for _, cfg := range s.Machines {
				for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
					pool, err := s.Pool(name, "O3", cfg, algo)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range points {
						if _, err := pool.Evaluate(c); err != nil {
							t.Fatal(err)
						}
					}
					if n := pool.Truncated(); n != 0 {
						t.Errorf("seed %d %s: %d subgraph searches ran out of budget", seed, ConfigLabel(algo, cfg, "O3")+" "+name, n)
					}
					pools++
				}
			}
		}
		if n := s.Truncated(); n != 0 || pools != 24 {
			t.Fatalf("seed %d: %d truncated searches over %d pools, want 0 over 24", seed, n, pools)
		}
	}
}

func TestAreaSweepShape(t *testing.T) {
	s := reducedSuite()
	as, err := s.RunAreaSweep()
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := 2 /*algos*/ * 2 /*machines*/ * 2 /*opts*/
	if len(as.Labels) != wantLabels {
		t.Fatalf("labels = %d, want %d", len(as.Labels), wantLabels)
	}
	for _, label := range as.Labels {
		rs := as.Reduction[label]
		if len(rs) != len(AreaCaps) {
			t.Fatalf("%s: %d points, want %d", label, len(rs), len(AreaCaps))
		}
		for i, r := range rs {
			if r < 0 || r >= 1 {
				t.Errorf("%s: reduction[%d] = %v out of [0,1)", label, i, r)
			}
			// More area can never hurt: reductions are non-decreasing.
			if i > 0 && r < rs[i-1]-1e-9 {
				t.Errorf("%s: reduction dropped from %v to %v with more area", label, rs[i-1], r)
			}
		}
	}
	// Paper's key result: under the same constraints MI beats SI on average
	// (averaged over all configs and the largest cap).
	last := len(AreaCaps) - 1
	miSum, siSum := 0.0, 0.0
	for _, cfg := range s.Machines {
		for _, opt := range s.OptLevels {
			miSum += as.Reduction[ConfigLabel(flow.MI, cfg, opt)][last]
			siSum += as.Reduction[ConfigLabel(flow.SI, cfg, opt)][last]
		}
	}
	if miSum < siSum {
		t.Errorf("MI average (%v) below SI average (%v) at max area", miSum, siSum)
	}
}

func TestCountSweepShape(t *testing.T) {
	s := reducedSuite()
	cs, err := s.RunCountSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range cs.Labels {
		rs := cs.Reduction[label]
		if len(rs) != len(ISECounts) {
			t.Fatalf("%s: %d points", label, len(rs))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i] < rs[i-1]-1e-9 {
				t.Errorf("%s: reduction dropped with more ISEs: %v -> %v", label, rs[i-1], rs[i])
			}
		}
	}
}

func TestAreaVsTimeShape(t *testing.T) {
	s := reducedSuite()
	v, err := s.RunAreaVsTime()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		if len(v.Area[algo]) != len(ISECounts) || len(v.Reduction[algo]) != len(ISECounts) {
			t.Fatalf("%s: wrong series length", algo)
		}
		// Area grows (weakly) with the ISE budget; so does reduction.
		for i := 1; i < len(ISECounts); i++ {
			if v.Area[algo][i] < v.Area[algo][i-1]-1e-9 {
				t.Errorf("%s: area dropped with more ISEs", algo)
			}
			if v.Reduction[algo][i] < v.Reduction[algo][i-1]-1e-9 {
				t.Errorf("%s: reduction dropped with more ISEs", algo)
			}
		}
	}
	// Fig. 5.2.3's observation: the first ISE dominates — going from 1 to 32
	// ISEs must gain less than the first ISE gains over zero.
	firstGain := v.Reduction[flow.MI][0]
	tailGain := v.Reduction[flow.MI][len(ISECounts)-1] - firstGain
	if firstGain <= 0 {
		t.Error("first ISE gains nothing")
	}
	if tailGain > firstGain {
		t.Errorf("tail ISEs (%v) dominate first ISE (%v); paper shows the opposite", tailGain, firstGain)
	}
}

func TestHeadlineShape(t *testing.T) {
	s := reducedSuite()
	h, err := s.RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	if h.OneISE.Avg <= 0 {
		t.Errorf("one-ISE average reduction %v, want positive", h.OneISE.Avg)
	}
	if h.OneISE.Max < h.OneISE.Avg || h.OneISE.Avg < h.OneISE.Min {
		t.Errorf("max/avg/min ordering broken: %+v", h.OneISE)
	}
	if h.VsSI.Avg < 0 {
		t.Errorf("MI loses to SI on average: %+v", h.VsSI)
	}
}

func TestRenderers(t *testing.T) {
	s := reducedSuite()
	var buf bytes.Buffer
	RenderTable511(&buf)
	if !strings.Contains(buf.String(), "84428") {
		t.Error("table missing mult area")
	}

	as, err := s.RunAreaSweep()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	as.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5.2.1") || !strings.Contains(buf.String(), "MI(4/2, 2IS, O0)") {
		t.Errorf("area sweep render:\n%s", buf.String())
	}

	cs, err := s.RunCountSweep()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	cs.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5.2.2") {
		t.Error("count sweep render missing title")
	}

	v, err := s.RunAreaVsTime()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	v.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5.2.3") {
		t.Error("area-vs-time render missing title")
	}

	h, err := s.RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	h.Render(&buf)
	if !strings.Contains(buf.String(), "one ISE vs no ISE") {
		t.Error("headline render missing")
	}
}

func TestBenchStats(t *testing.T) {
	stats, err := CollectBenchStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no stats")
	}
	for _, s := range stats {
		if s.StaticOps <= 0 || s.DynamicOps == 0 || s.Blocks == 0 {
			t.Errorf("%s/%s: degenerate stats %+v", s.Name, s.Opt, s)
		}
		if s.HotILP < 1 {
			t.Errorf("%s/%s: ILP %v below 1", s.Name, s.Opt, s.HotILP)
		}
		if s.HotEligible > s.HotOps {
			t.Errorf("%s/%s: eligible %d > ops %d", s.Name, s.Opt, s.HotEligible, s.HotOps)
		}
	}
	var buf bytes.Buffer
	if err := RenderBenchStats(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crc32") || !strings.Contains(buf.String(), "sha") {
		t.Error("stats table missing benchmarks")
	}
}

func TestCSVOutputs(t *testing.T) {
	s := reducedSuite()
	as, err := s.RunAreaSweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	as.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(as.Labels) {
		t.Fatalf("area CSV lines = %d, want %d", len(lines), 1+len(as.Labels))
	}
	if !strings.HasPrefix(lines[0], "config,area_20000") {
		t.Errorf("header = %q", lines[0])
	}
	// Quoted labels (they contain commas).
	if !strings.HasPrefix(lines[1], `"`) {
		t.Errorf("label not quoted: %q", lines[1])
	}

	cs, err := s.RunCountSweep()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	cs.CSV(&buf)
	if !strings.Contains(buf.String(), "ises_32") {
		t.Error("count CSV missing column")
	}

	v, err := s.RunAreaVsTime()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	v.CSV(&buf)
	if !strings.HasPrefix(buf.String(), "ises,mi_area,si_area") {
		t.Error("area-vs-time CSV header wrong")
	}
}

func TestBreakdown(t *testing.T) {
	s := reducedSuite()
	b, err := s.RunBreakdown(s.Machines[0], "O3")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		for _, name := range s.Benchmarks {
			rs := b.Reduction[algo][name]
			if len(rs) != len(ISECounts) {
				t.Fatalf("%s/%s: %d points", algo, name, len(rs))
			}
			// Greedy selection by gain is not the exploration's acceptance
			// order, so per-benchmark curves may dip slightly; only flag
			// substantial regressions.
			for i := 1; i < len(rs); i++ {
				if rs[i] < rs[i-1]-0.05 {
					t.Errorf("%s/%s: reduction dropped sharply with more ISEs: %v -> %v",
						algo, name, rs[i-1], rs[i])
				}
			}
		}
	}
	var buf bytes.Buffer
	b.Render(&buf, s.Benchmarks)
	if !strings.Contains(buf.String(), "crc32") || !strings.Contains(buf.String(), "MI") {
		t.Errorf("breakdown render:\n%s", buf.String())
	}
}

func TestSVGOutputs(t *testing.T) {
	s := reducedSuite()
	as, err := s.RunAreaSweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	as.SVG(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("area sweep SVG not well-formed")
	}
	if !strings.Contains(out, "Figure 5.2.1") {
		t.Error("missing title")
	}
	if strings.Count(out, "<rect") < len(as.Labels)*len(as.Caps) {
		t.Errorf("too few bars: %d", strings.Count(out, "<rect"))
	}

	cs, err := s.RunCountSweep()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	cs.SVG(&buf)
	if !strings.Contains(buf.String(), "Figure 5.2.2") {
		t.Error("count sweep SVG missing title")
	}

	v, err := s.RunAreaVsTime()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	v.SVG(&buf)
	if !strings.Contains(buf.String(), "MI reduction") {
		t.Error("area-vs-time SVG missing legend")
	}
}
