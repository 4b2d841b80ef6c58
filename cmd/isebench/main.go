// Command isebench regenerates the paper's evaluation artifacts: Table
// 5.1.1, Figures 5.2.1-5.2.3 and the abstract's headline numbers.
//
// Usage:
//
//	isebench -all              # everything (full matrix, several minutes)
//	isebench -figure 16 -fast  # one figure with reduced exploration effort
//	isebench -headline
//	isebench -table
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("isebench: ")
	obs.RegisterBuildInfo(obs.Default)
	var (
		table     = flag.Bool("table", false, "print Table 5.1.1 (hardware option settings)")
		figure    = flag.Int("figure", 0, "regenerate one figure: 16, 17 or 18")
		headline  = flag.Bool("headline", false, "compute the abstract's headline numbers")
		stats     = flag.Bool("stats", false, "print benchmark characteristics and, last, the MI and SI rounds the iteration cap ended and the count of subgraph searches that ran out of budget")
		breakdown = flag.Bool("breakdown", false, "per-benchmark reduction breakdown (2-issue 4/2, O3)")
		csv       = flag.Bool("csv", false, "emit figure data as CSV instead of tables")
		svgDir    = flag.String("svg", "", "also write figure SVGs into this directory")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		fast      = flag.Bool("fast", false, "reduced-effort exploration (quick preview)")
		benches   = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the paper's seven)")
		extended  = flag.Bool("extended", false, "include the extension benchmarks (sha, stringsearch) in the matrix")
		hot       = flag.Int("hot", 3, "hot basic blocks explored per benchmark")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "exploration worker pool size (0 = one per item, 1 = sequential; results are identical)")
		cpuPath   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memPath   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if !*table && *figure == 0 && !*headline && !*all && !*stats && !*breakdown {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuPath != "" {
		stop, err := obs.StartCPUProfile(*cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	if *memPath != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memPath); err != nil {
				log.Fatal(err)
			}
		}()
	}

	params := core.DefaultParams()
	if *fast {
		params = core.FastParams()
	}
	params.Seed = *seed
	params.Workers = *workers
	suite := experiments.NewSuite(params)
	suite.HotBlocks = *hot
	suite.Workers = *workers
	if *extended {
		suite.Benchmarks = bench.Extended()
	}
	if *benches != "" {
		suite.Benchmarks = strings.Split(*benches, ",")
	}

	start := time.Now()
	if *stats {
		if err := experiments.RenderBenchStats(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *table || *all {
		experiments.RenderTable511(os.Stdout)
		fmt.Println()
	}
	if *figure == 16 || *all {
		as, err := suite.RunAreaSweep()
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			as.CSV(os.Stdout)
		} else {
			as.Render(os.Stdout)
		}
		writeSVG(*svgDir, "fig16.svg", as.SVG)
		fmt.Println()
	}
	if *figure == 17 || *all {
		cs, err := suite.RunCountSweep()
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			cs.CSV(os.Stdout)
		} else {
			cs.Render(os.Stdout)
		}
		writeSVG(*svgDir, "fig17.svg", cs.SVG)
		fmt.Println()
	}
	if *figure == 18 || *all {
		v, err := suite.RunAreaVsTime()
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			v.CSV(os.Stdout)
		} else {
			v.Render(os.Stdout)
		}
		writeSVG(*svgDir, "fig18.svg", v.SVG)
		fmt.Println()
	}
	if *breakdown {
		bd, err := suite.RunBreakdown(suite.Machines[0], "O3")
		if err != nil {
			log.Fatal(err)
		}
		bd.Render(os.Stdout, suite.Benchmarks)
		fmt.Println()
	}
	if *headline || *all {
		h, err := suite.RunHeadline()
		if err != nil {
			log.Fatal(err)
		}
		h.Render(os.Stdout)
		fmt.Println()
	}
	if *stats {
		for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
			rounds, capped := suite.Rounds(algo)
			share := 0.0
			if rounds > 0 {
				share = 100 * float64(capped) / float64(rounds)
			}
			fmt.Printf("%s rounds ended by the iteration cap: %d of %d (%.1f%%)\n", algo, capped, rounds, share)
		}
		fmt.Printf("subgraph searches out of budget: %d\n\n", suite.Truncated())
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}

// writeSVG renders one figure into dir/name when -svg is set.
func writeSVG(dir, name string, render func(io.Writer)) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	render(f)
	fmt.Printf("wrote %s\n", filepath.Join(dir, name))
}
