package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
)

// BenchStat summarizes one workload — the "benchmark characteristics" table
// customary in ISE papers.
type BenchStat struct {
	Name        string
	Opt         string
	StaticOps   int
	DynamicOps  uint64
	Blocks      int
	HotOps      int     // size of the hottest basic block
	HotDepth    int     // its dependence depth
	HotILP      float64 // ops / depth: the dataflow-limit parallelism
	HotEligible int     // ISE-eligible operations in the hot block
}

// CollectBenchStats profiles every benchmark (including extensions) and
// derives its characteristics.
func CollectBenchStats() ([]BenchStat, error) {
	var out []BenchStat
	for _, name := range bench.Extended() {
		for _, opt := range bench.Opts() {
			bm, err := bench.Get(name, opt)
			if err != nil {
				return nil, err
			}
			prof, err := bm.Profile()
			if err != nil {
				return nil, err
			}
			hot, err := bm.HotDFGs(1)
			if err != nil {
				return nil, err
			}
			d := hot[0]
			eligible := 0
			for _, n := range d.Nodes {
				if n.ISEEligible() {
					eligible++
				}
			}
			st := BenchStat{
				Name:        name,
				Opt:         opt,
				StaticOps:   bm.Prog.NumInstrs(),
				DynamicOps:  prof.DynInstrs,
				Blocks:      len(bm.Prog.Blocks),
				HotOps:      d.Len(),
				HotDepth:    d.CriticalPathLen(),
				HotEligible: eligible,
			}
			if st.HotDepth > 0 {
				st.HotILP = float64(st.HotOps) / float64(st.HotDepth)
			}
			out = append(out, st)
		}
	}
	return out, nil
}

// RenderBenchStats prints the characteristics table.
func RenderBenchStats(w io.Writer) error {
	stats, err := CollectBenchStats()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Benchmark characteristics (hottest basic block)")
	fmt.Fprintf(w, "%-14s %-4s %7s %9s %7s %7s %7s %6s %9s\n",
		"benchmark", "opt", "static", "dynamic", "blocks", "hot ops", "depth", "ILP", "eligible")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	for _, s := range stats {
		fmt.Fprintf(w, "%-14s %-4s %7d %9d %7d %7d %7d %6.2f %9d\n",
			s.Name, s.Opt, s.StaticOps, s.DynamicOps, s.Blocks, s.HotOps, s.HotDepth, s.HotILP, s.HotEligible)
	}
	return nil
}

// CSV renders Fig. 5.2.1 data as comma-separated values.
func (a *AreaSweep) CSV(w io.Writer) {
	fmt.Fprint(w, "config")
	for _, c := range a.Caps {
		fmt.Fprintf(w, ",area_%.0f", c)
	}
	fmt.Fprintln(w)
	for _, label := range a.Labels {
		fmt.Fprint(w, csvQuote(label))
		for _, r := range a.Reduction[label] {
			fmt.Fprintf(w, ",%.4f", r)
		}
		fmt.Fprintln(w)
	}
}

// CSV renders Fig. 5.2.2 data as comma-separated values.
func (c *CountSweep) CSV(w io.Writer) {
	fmt.Fprint(w, "config")
	for _, n := range c.Counts {
		fmt.Fprintf(w, ",ises_%d", n)
	}
	fmt.Fprintln(w)
	for _, label := range c.Labels {
		fmt.Fprint(w, csvQuote(label))
		for _, r := range c.Reduction[label] {
			fmt.Fprintf(w, ",%.4f", r)
		}
		fmt.Fprintln(w)
	}
}

// CSV renders Fig. 5.2.3 data as comma-separated values.
func (v *AreaVsTime) CSV(w io.Writer) {
	fmt.Fprintln(w, "ises,mi_area,si_area,mi_reduction,si_reduction")
	for i, n := range v.Counts {
		fmt.Fprintf(w, "%d,%.1f,%.1f,%.4f,%.4f\n",
			n, v.Area["MI"][i], v.Area["SI"][i], v.Reduction["MI"][i], v.Reduction["SI"][i])
	}
}

func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
