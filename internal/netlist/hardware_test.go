package netlist

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/vm"
)

// iseModule pairs an explored ISE with its lowered datapath.
type iseModule struct {
	ise *core.ISE
	m   *Module
}

// TestISEHardwareMatchesRealExecution is the strongest validation in the
// repository: explore ISEs on real benchmarks, lower each to its ASFU
// netlist, re-run the benchmark on the interpreter with value tracing, and
// check — for every dynamic execution of the customized block — that the
// hardware datapath computes bit-for-bit the values the replaced software
// instructions computed.
func TestISEHardwareMatchesRealExecution(t *testing.T) {
	cfg := machine.New(2, 4, 2)
	for _, name := range []string{"crc32", "sha", "rijndael", "bitcount"} {
		for _, opt := range bench.Opts() {
			bm, err := bench.Get(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := bm.Run()
			if err != nil {
				t.Fatal(err)
			}
			hot := prof.HotBlocks(bm.Prog, 1)
			d := dfg.BuildAll(bm.Prog, hot, prof.BlockCounts)[0]
			res, err := core.Explore(t.Context(), d, cfg, core.FastParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.ISEs) == 0 {
				continue
			}
			checks := traceAndCheck(t, bm, d, res.ISEs)
			if checks == 0 {
				t.Errorf("%s: no dynamic checks performed", bm.FullName())
			}
		}
	}
}

// traceAndCheck runs the benchmark under tracing and validates every ISE's
// netlist on every dynamic execution of the hot block. It returns the number
// of (execution × ISE) checks performed.
func traceAndCheck(t *testing.T, bm *bench.Benchmark, d *dfg.DFG, ises []*core.ISE) int {
	t.Helper()
	var mods []iseModule
	for i, e := range ises {
		m, err := FromISE(d, e, "chk")
		if err != nil {
			t.Fatalf("%s ISE %d: %v", bm.FullName(), i, err)
		}
		mods = append(mods, iseModule{e, m})
	}

	machineVM := vm.NewMachine(bench.MemSize)
	if err := bm.Setup(machineVM); err != nil {
		t.Fatal(err)
	}
	current := make([]uint64, d.Len())
	snapshot := map[string]uint32{}
	checks := 0

	// At block entry, sample every live-in input port from the register
	// file (a live-in operand is by definition not redefined in the block
	// before its use, so the entry value is the value the ASFU would read).
	machineVM.TraceBlock = func(block int) {
		if block != d.BlockIndex {
			return
		}
		for _, md := range mods {
			for _, p := range md.m.Inputs {
				if !strings.HasPrefix(p.Name, "in__") {
					continue
				}
				r, ok := regByName("$" + strings.TrimPrefix(p.Name, "in__"))
				if !ok {
					t.Fatalf("unknown port %q", p.Name)
				}
				snapshot[p.Name] = machineVM.Reg(r)
			}
		}
	}
	machineVM.Trace = func(block, instr int, value uint64) {
		if block != d.BlockIndex {
			return
		}
		current[instr] = value
		if instr != d.Len()-1 {
			return
		}
		// Block complete: evaluate every ISE against the traced values.
		for _, md := range mods {
			inputs := map[string]uint32{}
			for _, p := range md.m.Inputs {
				if strings.HasPrefix(p.Name, "in_n") {
					producer, err := parseInt(strings.TrimPrefix(p.Name, "in_n"))
					if err != nil {
						t.Fatalf("port %q: %v", p.Name, err)
					}
					inputs[p.Name] = uint32(current[producer])
				} else {
					inputs[p.Name] = snapshot[p.Name]
				}
			}
			outs, err := md.m.Eval(inputs)
			if err != nil {
				t.Fatalf("%s: %v", bm.FullName(), err)
			}
			for _, p := range md.m.Outputs {
				if got, want := outs[p.Name], current[p.Node]; got != want {
					t.Fatalf("%s: ISE output %s = %#x, software computed %#x\n%s",
						bm.FullName(), p.Name, got, want, md.m.Verilog())
				}
			}
			checks++
		}
	}
	if _, err := machineVM.Run(bm.Prog, bench.MaxSteps); err != nil {
		t.Fatal(err)
	}
	return checks
}
