// Command iseexplore runs ISE exploration on one benchmark kernel and
// prints the discovered instruction-set extensions, their hardware metrics
// and the schedule improvement on the chosen machine.
//
// Usage:
//
//	iseexplore -bench crc32 -opt O3 -issue 2 -read 4 -write 2 -algo MI
//	iseexplore -bench crc32 -trace trace.json   # Perfetto-loadable timeline
//	iseexplore -bench crc32 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/vm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iseexplore: ")
	obs.RegisterBuildInfo(obs.Default)
	// Ctrl-C / SIGTERM cancels the exploration at the next convergence
	// iteration instead of killing it mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		benchName = flag.String("bench", "crc32", "benchmark name (see internal/bench.Extended)")
		file      = flag.String("file", "", "explore a PISA assembly file instead of a built-in benchmark")
		optimize  = flag.Bool("optimize", false, "run copy-propagation/DCE on a -file kernel before exploring")
		optLevel  = flag.String("opt", "O3", "optimization level (O0 or O3)")
		issue     = flag.Int("issue", 2, "issue width")
		reads     = flag.Int("read", 4, "register file read ports")
		writes    = flag.Int("write", 2, "register file write ports")
		algo      = flag.String("algo", "MI", "exploration algorithm: MI (proposed) or SI (Wu [8] baseline)")
		hot       = flag.Int("hot", 1, "number of hot basic blocks to explore")
		fast      = flag.Bool("fast", false, "use reduced-effort exploration parameters")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "restart worker pool size (0 = one per restart, 1 = sequential; results are identical)")
		showDFG   = flag.Bool("dfg", false, "print the dataflow graph of each explored block")
		verilog   = flag.Bool("verilog", false, "emit a Verilog datapath module for each ISE")
		dot       = flag.Bool("dot", false, "emit a Graphviz DOT graph of each block with its ISEs highlighted")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the exploration (load in Perfetto)")
		cpuPath   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memPath   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopCPU := func() {}
	if *cpuPath != "" {
		stop, err := obs.StartCPUProfile(*cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		stopCPU = stop
	}
	var tr *obs.Tracer
	if *tracePath != "" {
		tr = obs.NewTracer()
		tr.SetPID(0, "iseexplore")
		tr.NameTrack(0, "blocks")
		if *algo == "SI" {
			log.Print("note: -trace records MI exploration; the SI baseline runs untraced")
		}
	}
	// os.Exit skips deferred calls, so the artifact writes happen explicitly
	// on the success path (a log.Fatal exit leaves no partial profiles).
	finish := func() {
		if tr != nil {
			f, err := os.Create(*tracePath)
			if err != nil {
				log.Fatal(err)
			}
			if err := tr.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %d trace events to %s\n", tr.Len(), *tracePath)
		}
		stopCPU()
		if *memPath != "" {
			if err := obs.WriteHeapProfile(*memPath); err != nil {
				log.Fatal(err)
			}
		}
	}

	cfg := machine.New(*issue, *reads, *writes)
	params := core.DefaultParams()
	if *fast {
		params = core.FastParams()
	}
	params.Seed = *seed
	params.Workers = *workers

	var ds []*dfg.DFG
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		program, err := prog.Parse(*file, string(src))
		if err != nil {
			log.Fatal(err)
		}
		if *optimize {
			before := program.NumInstrs()
			program, err = opt.Optimize(program)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("optimizer: %d -> %d static instructions\n", before, program.NumInstrs())
		}
		m := vm.NewMachine(bench.MemSize)
		prof, err := m.Run(program, bench.MaxSteps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("program %s on %s: %d dynamic instructions\n", *file, cfg.Name, prof.DynInstrs)
		ds = dfg.BuildAll(program, prof.HotBlocks(program, *hot), prof.BlockCounts)
	} else {
		bm, err := bench.Get(*benchName, *optLevel)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := bm.Profile()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchmark %s on %s: %d dynamic instructions\n", bm.FullName(), cfg.Name, prof.DynInstrs)
		if ds, err = bm.HotDFGs(*hot); err != nil {
			log.Fatal(err)
		}
	}

	for bi, d := range ds {
		fmt.Printf("\nblock %s: %d operations, weight %d, dependence depth %d\n",
			d.Name, d.Len(), d.Weight, d.CriticalPathLen())
		if *showDFG {
			fmt.Print(d)
		}
		var res *core.Result
		var err error
		switch *algo {
		case "MI":
			blockSpan := tr.Begin("block", 0).Arg("block", int64(bi))
			res, _, err = core.ExploreResumable(ctx, d, cfg, params, core.ResumeOptions{Trace: tr})
			blockSpan.End()
		case "SI":
			res, err = baseline.ExploreSharedCtx(ctx, d, cfg, params, nil)
		default:
			log.Fatalf("unknown algorithm %q (want MI or SI)", *algo)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s exploration: %d rounds, %d iterations", *algo, res.Rounds, res.Iterations)
		if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
			fmt.Printf(", eval cache %d/%d hits (%.0f%%)",
				res.CacheHits, lookups, 100*float64(res.CacheHits)/float64(lookups))
		}
		fmt.Println()
		if *dot {
			var sets []graph.NodeSet
			for _, e := range res.ISEs {
				sets = append(sets, e.Nodes)
			}
			d.DOT(os.Stdout, sets...)
		}
		fmt.Printf("  schedule: %d cycles without ISE -> %d cycles with ISE (%.2f%% reduction)\n",
			res.BaseCycles, res.FinalCycles, 100*res.Reduction())
		if len(res.ISEs) == 0 {
			fmt.Println("  no ISE found")
			continue
		}
		for i, e := range res.ISEs {
			fmt.Printf("  ISE %d: %d ops, %.2f ns datapath, %d cycle(s), %.0f µm², %d in / %d out\n",
				i+1, e.Size(), e.DelayNS, e.Cycles, e.AreaUM2, e.In, e.Out)
			for _, v := range e.Nodes.Values() {
				opt := d.Nodes[v].HW[e.Option[v]]
				fmt.Printf("      n%-3d %-26s %s (%.2f ns, %.0f µm²)\n",
					v, d.Nodes[v].Instr.String(), opt.Name, opt.DelayNS, opt.AreaUM2)
			}
			if *verilog {
				mod, nerr := netlist.FromISE(d, e, fmt.Sprintf("%s_ise%d", d.Name, i+1))
				if nerr != nil {
					log.Fatal(nerr)
				}
				fmt.Println()
				fmt.Print(mod.Verilog())
			}
		}
	}
	finish()
	os.Exit(0)
}
