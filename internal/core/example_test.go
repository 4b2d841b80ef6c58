package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
)

// ExampleExplore discovers a custom instruction in a Galois-LFSR step: the
// classic mask/shift/xor chain collapses into a single-cycle ASFU operation.
func ExampleExplore() {
	// Assemble the kernel.
	b := prog.NewBuilder("lfsr")
	b.I(isa.OpANDI, prog.T0, prog.S0, 1)        // bit  = lfsr & 1
	b.R(isa.OpSUB, prog.T1, prog.Zero, prog.T0) // mask = -bit
	b.I(isa.OpSRL, prog.T2, prog.S0, 1)         // half = lfsr >> 1
	b.R(isa.OpAND, prog.T1, prog.S1, prog.T1)   // taps & mask
	b.R(isa.OpXOR, prog.S0, prog.T2, prog.T1)   // lfsr = half ^ ...
	b.Halt()
	p := b.MustBuild()

	// Build its dataflow graph and explore on a 2-issue machine.
	lv := prog.ComputeLiveness(p)
	d := dfg.Build(p, 0, 1, lv.LiveOut[0])
	res, err := core.Explore(context.Background(), d, machine.New(2, 4, 2), core.DefaultParams())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ISEs: %d\n", len(res.ISEs))
	fmt.Printf("cycles: %d -> %d\n", res.BaseCycles, res.FinalCycles)
	fmt.Printf("ISE size: %d ops in %d cycle(s)\n", res.ISEs[0].Size(), res.ISEs[0].Cycles)
	// Output:
	// ISEs: 1
	// cycles: 4 -> 1
	// ISE size: 5 ops in 1 cycle(s)
}
