// Package experiments regenerates the paper's evaluation artifacts:
//
//	Table 5.1.1 — hardware implementation-option settings
//	Fig. 5.2.1  — execution-time reduction vs. silicon-area constraint
//	Fig. 5.2.2  — execution-time reduction vs. number of ISEs
//	Fig. 5.2.3  — silicon-area cost vs. execution-time reduction
//	Headlines   — 1-ISE reduction vs. no-ISE; MI vs. SI at equal area
//
// Exploration pools are cached per (benchmark, optimization level, machine,
// algorithm), so the constraint sweeps reuse one expensive exploration per
// combination exactly as the paper's flow separates exploration from
// selection.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/selection"
)

// AreaCaps are the silicon-area constraints of Fig. 5.2.1 in µm².
var AreaCaps = []float64{20000, 40000, 80000, 160000, 320000}

// ISECounts are the instruction-count constraints of Fig. 5.2.2.
var ISECounts = []int{1, 2, 4, 8, 16, 32}

// Suite runs the evaluation matrix with a shared pool cache.
type Suite struct {
	Params     core.Params
	HotBlocks  int
	Benchmarks []string
	OptLevels  []string
	Machines   []machine.Config
	// Workers overrides Params.Workers for every pool build: the size of
	// the bounded worker pool that fans out block explorations and
	// restarts. 0 keeps Params.Workers (whose own 0 means one worker per
	// CPU). Results are identical for every setting.
	Workers int

	mu sync.Mutex
	// pools caches built exploration pools; guarded by mu.
	pools map[poolKey]*flow.Pool
}

type poolKey struct {
	bench, opt, machine string
	algo                flow.Algorithm
}

// NewSuite returns the full evaluation matrix of §5.1 (7 benchmarks × 2
// optimization levels × 6 machine configurations) with the given exploration
// parameters.
func NewSuite(p core.Params) *Suite {
	return &Suite{
		Params:     p,
		HotBlocks:  3,
		Benchmarks: bench.Names(),
		OptLevels:  bench.Opts(),
		Machines:   machine.Configs(),
		pools:      map[poolKey]*flow.Pool{},
	}
}

// Pool returns the cached exploration pool for one combination, building it
// on first use.
func (s *Suite) Pool(name, opt string, cfg machine.Config, algo flow.Algorithm) (*flow.Pool, error) {
	k := poolKey{name, opt, cfg.Name, algo}
	s.mu.Lock()
	p, ok := s.pools[k]
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	bm, err := bench.Get(name, opt)
	if err != nil {
		return nil, err
	}
	params := s.Params
	if s.Workers != 0 {
		params.Workers = s.Workers
	}
	p, err = flow.BuildPool(bm, flow.Options{
		Machine:   cfg,
		Params:    params,
		Algorithm: algo,
		HotBlocks: s.HotBlocks,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s on %s (%s): %w", name, opt, cfg.Name, algo, err)
	}
	s.mu.Lock()
	s.pools[k] = p
	s.mu.Unlock()
	return p, nil
}

// Truncated returns how many subgraph searches of the pools built so far ran
// out of budget (flow.Pool.Truncated), summed over the pools.
func (s *Suite) Truncated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.pools {
		n += p.Truncated()
	}
	return n
}

// ConfigLabel renders the paper's X-axis label, e.g. "MI(4/2, 2IS, O3)".
func ConfigLabel(algo flow.Algorithm, cfg machine.Config, opt string) string {
	return fmt.Sprintf("%s(%d/%d, %dIS, %s)", algo, cfg.ReadPorts, cfg.WritePorts, cfg.IssueWidth, opt)
}

// avgReduction evaluates every benchmark under the constraints and returns
// the mean execution-time reduction.
func (s *Suite) avgReduction(opt string, cfg machine.Config, algo flow.Algorithm, c selection.Constraints) (float64, error) {
	total := 0.0
	for _, name := range s.Benchmarks {
		pool, err := s.Pool(name, opt, cfg, algo)
		if err != nil {
			return 0, err
		}
		rep, err := pool.Evaluate(c)
		if err != nil {
			return 0, err
		}
		total += rep.Reduction()
	}
	return total / float64(len(s.Benchmarks)), nil
}

// AreaSweep is the data of Fig. 5.2.1: one series per configuration label,
// one point per area constraint.
type AreaSweep struct {
	Caps   []float64
	Labels []string
	// Reduction[label][i] is the average execution-time reduction at
	// Caps[i].
	Reduction map[string][]float64
}

// RunAreaSweep regenerates Fig. 5.2.1.
func (s *Suite) RunAreaSweep() (*AreaSweep, error) {
	out := &AreaSweep{Caps: AreaCaps, Reduction: map[string][]float64{}}
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		for _, cfg := range s.Machines {
			for _, opt := range s.OptLevels {
				label := ConfigLabel(algo, cfg, opt)
				out.Labels = append(out.Labels, label)
				for _, areaCap := range AreaCaps {
					r, err := s.avgReduction(opt, cfg, algo, selection.Constraints{MaxAreaUM2: areaCap})
					if err != nil {
						return nil, err
					}
					out.Reduction[label] = append(out.Reduction[label], r)
				}
			}
		}
	}
	return out, nil
}

// CountSweep is the data of Fig. 5.2.2: reduction per ISE-count budget.
type CountSweep struct {
	Counts []int
	Labels []string
	// Reduction[label][i] is the average reduction with Counts[i] ISEs.
	Reduction map[string][]float64
}

// RunCountSweep regenerates Fig. 5.2.2.
func (s *Suite) RunCountSweep() (*CountSweep, error) {
	out := &CountSweep{Counts: ISECounts, Reduction: map[string][]float64{}}
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		for _, cfg := range s.Machines {
			for _, opt := range s.OptLevels {
				label := ConfigLabel(algo, cfg, opt)
				out.Labels = append(out.Labels, label)
				for _, n := range ISECounts {
					r, err := s.avgReduction(opt, cfg, algo, selection.Constraints{MaxISEs: n})
					if err != nil {
						return nil, err
					}
					out.Reduction[label] = append(out.Reduction[label], r)
				}
			}
		}
	}
	return out, nil
}

// AreaVsTime is the data of Fig. 5.2.3: per ISE-count budget, the average
// silicon-area cost and execution-time reduction of both algorithms.
type AreaVsTime struct {
	Counts []int
	// Area[algo][i] and Reduction[algo][i] aggregate over all benchmarks,
	// optimization levels and machines.
	Area      map[flow.Algorithm][]float64
	Reduction map[flow.Algorithm][]float64
}

// RunAreaVsTime regenerates Fig. 5.2.3.
func (s *Suite) RunAreaVsTime() (*AreaVsTime, error) {
	out := &AreaVsTime{
		Counts:    ISECounts,
		Area:      map[flow.Algorithm][]float64{},
		Reduction: map[flow.Algorithm][]float64{},
	}
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		for _, n := range ISECounts {
			areaSum, redSum, cells := 0.0, 0.0, 0
			for _, cfg := range s.Machines {
				for _, opt := range s.OptLevels {
					for _, name := range s.Benchmarks {
						pool, err := s.Pool(name, opt, cfg, algo)
						if err != nil {
							return nil, err
						}
						rep, err := pool.Evaluate(selection.Constraints{MaxISEs: n})
						if err != nil {
							return nil, err
						}
						areaSum += rep.AreaUM2
						redSum += rep.Reduction()
						cells++
					}
				}
			}
			out.Area[algo] = append(out.Area[algo], areaSum/float64(cells))
			out.Reduction[algo] = append(out.Reduction[algo], redSum/float64(cells))
		}
	}
	return out, nil
}

// MaxMinAvg is a summary triple over benchmarks.
type MaxMinAvg struct {
	Max, Min, Avg float64
	MaxName       string
	MinName       string
}

func summarize(vals map[string]float64) MaxMinAvg {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	out := MaxMinAvg{Max: -1e18, Min: 1e18}
	sum := 0.0
	for _, n := range names {
		v := vals[n]
		sum += v
		if v > out.Max {
			out.Max, out.MaxName = v, n
		}
		if v < out.Min {
			out.Min, out.MinName = v, n
		}
	}
	if len(names) > 0 {
		out.Avg = sum / float64(len(names))
	}
	return out
}

// Headline reproduces the abstract's two claims.
type Headline struct {
	// OneISE: execution-time reduction with a single ISE vs. no ISE
	// (per benchmark, averaged over machines and optimization levels).
	OneISE MaxMinAvg
	// VsSI: percentage-point further reduction of MI over SI under the same
	// (320000 µm²) area constraint.
	VsSI MaxMinAvg
}

// RunHeadline computes the two headline summaries.
func (s *Suite) RunHeadline() (*Headline, error) {
	oneISE := map[string]float64{}
	vsSI := map[string]float64{}
	for _, name := range s.Benchmarks {
		oneSum, miSum, siSum, cells := 0.0, 0.0, 0.0, 0
		for _, cfg := range s.Machines {
			for _, opt := range s.OptLevels {
				miPool, err := s.Pool(name, opt, cfg, flow.MI)
				if err != nil {
					return nil, err
				}
				one, err := miPool.Evaluate(selection.Constraints{MaxISEs: 1})
				if err != nil {
					return nil, err
				}
				oneSum += one.Reduction()
				areaCap := AreaCaps[len(AreaCaps)-1]
				mi, err := miPool.Evaluate(selection.Constraints{MaxAreaUM2: areaCap})
				if err != nil {
					return nil, err
				}
				siPool, err := s.Pool(name, opt, cfg, flow.SI)
				if err != nil {
					return nil, err
				}
				si, err := siPool.Evaluate(selection.Constraints{MaxAreaUM2: areaCap})
				if err != nil {
					return nil, err
				}
				miSum += mi.Reduction()
				siSum += si.Reduction()
				cells++
			}
		}
		oneISE[name] = oneSum / float64(cells)
		vsSI[name] = (miSum - siSum) / float64(cells)
	}
	return &Headline{OneISE: summarize(oneISE), VsSI: summarize(vsSI)}, nil
}

// Breakdown is the per-benchmark decomposition of one configuration's
// average — the thesis reports per-benchmark bars behind every average.
type Breakdown struct {
	Machine  machine.Config
	OptLevel string
	Counts   []int
	// Reduction[algo][bench][i] is the reduction of bench with Counts[i]
	// ISEs.
	Reduction map[flow.Algorithm]map[string][]float64
}

// RunBreakdown regenerates the per-benchmark series for one machine and
// optimization level across the ISE-count budgets.
func (s *Suite) RunBreakdown(cfg machine.Config, opt string) (*Breakdown, error) {
	out := &Breakdown{
		Machine:  cfg,
		OptLevel: opt,
		Counts:   ISECounts,
		Reduction: map[flow.Algorithm]map[string][]float64{
			flow.MI: {}, flow.SI: {},
		},
	}
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		for _, name := range s.Benchmarks {
			pool, err := s.Pool(name, opt, cfg, algo)
			if err != nil {
				return nil, err
			}
			for _, n := range ISECounts {
				rep, err := pool.Evaluate(selection.Constraints{MaxISEs: n})
				if err != nil {
					return nil, err
				}
				out.Reduction[algo][name] = append(out.Reduction[algo][name], rep.Reduction())
			}
		}
	}
	return out, nil
}
