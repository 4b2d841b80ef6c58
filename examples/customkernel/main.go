// Customkernel: bring your own workload. This example assembles a small
// Galois-field LFSR step kernel with the PISA builder, verifies it in the
// interpreter, and runs ISE exploration on it — the path a user takes to
// evaluate custom-instruction potential of their own inner loop.
//
//	go run ./examples/customkernel
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/vm"
)

// buildLFSR assembles: 16 iterations of a 32-bit Galois LFSR
//
//	bit  = lfsr & 1
//	lfsr = (lfsr >> 1) ^ (taps & -bit)
//	acc += lfsr
func buildLFSR() *prog.Program {
	b := prog.NewBuilder("lfsr")
	lfsr, taps, acc, n := prog.S0, prog.S1, prog.S2, prog.S3
	b.LI(lfsr, 0xACE1ACE1)
	b.LI(taps, 0xB4BCD35C)
	b.R(isa.OpADDU, acc, prog.Zero, prog.Zero)
	b.I(isa.OpORI, n, prog.Zero, 16)
	b.Label("step")
	b.I(isa.OpANDI, prog.T0, lfsr, 1)
	b.R(isa.OpSUB, prog.T1, prog.Zero, prog.T0)
	b.I(isa.OpSRL, prog.T2, lfsr, 1)
	b.R(isa.OpAND, prog.T1, taps, prog.T1)
	b.R(isa.OpXOR, lfsr, prog.T2, prog.T1)
	b.R(isa.OpADDU, acc, acc, lfsr)
	b.I(isa.OpADDI, n, n, -1)
	b.Branch(isa.OpBNE, n, prog.Zero, "step")
	b.R(isa.OpADDU, prog.V0, acc, prog.Zero)
	b.Halt()
	return b.MustBuild()
}

// lfsrRef is the Go model used to verify the assembly.
func lfsrRef() uint32 {
	lfsr, taps := uint32(0xACE1ACE1), uint32(0xB4BCD35C)
	var acc uint32
	for i := 0; i < 16; i++ {
		bit := lfsr & 1
		lfsr = (lfsr >> 1) ^ (taps & -bit)
		acc += lfsr
	}
	return acc
}

func main() {
	log.SetFlags(0)
	p := buildLFSR()
	fmt.Println(p)

	// Verify on the interpreter and profile.
	m := vm.NewMachine(1 << 12)
	prof, err := m.Run(p, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	if got, want := m.Reg(prog.V0), lfsrRef(); got != want {
		log.Fatalf("kernel is wrong: $v0 = %#x, want %#x", got, want)
	}
	fmt.Printf("verified: $v0 = %#x, %d dynamic instructions\n\n", m.Reg(prog.V0), prof.DynInstrs)

	// Explore the hot loop on a 2-issue machine.
	hot := prof.HotBlocks(p, 1)
	d := dfg.BuildAll(p, hot, prof.BlockCounts)[0]
	cfg := machine.New(2, 4, 2)
	res, err := core.Explore(context.Background(), d, cfg, core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loop body %s: %d ops, %d -> %d cycles (%.1f%% faster)\n",
		d.Name, d.Len(), res.BaseCycles, res.FinalCycles, 100*res.Reduction())
	for _, e := range res.ISEs {
		fmt.Printf("  custom instruction: %d ops, %.2f ns, %d cycle(s), %.0f µm²\n",
			e.Size(), e.DelayNS, e.Cycles, e.AreaUM2)
		for _, v := range e.Nodes.Values() {
			fmt.Printf("    %s\n", d.Nodes[v].Instr)
		}
	}
}
