package netlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/prog"
)

func blockDFG(t *testing.T, emit func(b *prog.Builder)) *dfg.DFG {
	t.Helper()
	b := prog.NewBuilder("t")
	emit(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lv := prog.ComputeLiveness(p)
	return dfg.Build(p, 0, 1, lv.LiveOut[0])
}

// crcStepDFG is the canonical CRC bit-step: the 5-op ISE of the paper's
// domain.
func crcStepDFG(t *testing.T) *dfg.DFG {
	return blockDFG(t, func(b *prog.Builder) {
		b.I(isa.OpANDI, prog.T1, prog.S3, 1)        // n0
		b.R(isa.OpSUB, prog.T2, prog.Zero, prog.T1) // n1
		b.I(isa.OpSRL, prog.T3, prog.S3, 1)         // n2
		b.R(isa.OpAND, prog.T2, prog.S2, prog.T2)   // n3
		b.R(isa.OpXOR, prog.T4, prog.T3, prog.T2)   // n4
	})
}

func TestFromISECRCStep(t *testing.T) {
	d := crcStepDFG(t)
	ise := core.NewISE(d, graph.NodeSetOf(d.Len(), 0, 1, 2, 3, 4), map[int]int{})
	m, err := FromISE(d, ise, "crc_step")
	if err != nil {
		t.Fatal(err)
	}
	// Two external inputs: $s3 (crc) and $s2 (poly).
	if len(m.Inputs) != 2 {
		t.Fatalf("inputs = %v, want 2", m.Inputs)
	}
	// One escaping output: the xor (live-out $t4... nothing is live out of a
	// halt block, and no outside consumer exists, so outputs may be empty).
	// Force the check through a version with a consumer below.
	if len(m.Cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(m.Cells))
	}

	// Functional check: crc = 0xDEADBEEF, poly = 0xEDB88320.
	crc, poly := uint32(0xDEADBEEF), uint32(0xEDB88320)
	outs, err := m.Eval(map[string]uint32{"in__s3": crc, "in__s2": poly})
	if err != nil {
		t.Fatal(err)
	}
	_ = outs // outputs empty: value checked via the consumer variant below
	// With a consumer: n5 uses the xor result.
	d2 := blockDFG(t, func(b *prog.Builder) {
		b.I(isa.OpANDI, prog.T1, prog.S3, 1)
		b.R(isa.OpSUB, prog.T2, prog.Zero, prog.T1)
		b.I(isa.OpSRL, prog.T3, prog.S3, 1)
		b.R(isa.OpAND, prog.T2, prog.S2, prog.T2)
		b.R(isa.OpXOR, prog.T4, prog.T3, prog.T2)
		b.R(isa.OpOR, prog.V0, prog.T4, prog.Zero) // external consumer
	})
	ise2 := core.NewISE(d2, graph.NodeSetOf(d2.Len(), 0, 1, 2, 3, 4), map[int]int{})
	m2, err := FromISE(d2, ise2, "crc_step2")
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Outputs) != 1 || m2.Outputs[0].Node != 4 {
		t.Fatalf("outputs = %v, want the xor node", m2.Outputs)
	}
	outs, err = m2.Eval(map[string]uint32{"in__s3": crc, "in__s2": poly})
	if err != nil {
		t.Fatal(err)
	}
	mask := -(crc & 1)
	want := (crc >> 1) ^ (poly & mask)
	if got := uint32(outs["out_n4"]); got != want {
		t.Fatalf("crc step = %#x, want %#x", got, want)
	}
}

func TestVerilogRendersStructure(t *testing.T) {
	d := crcStepDFG(t)
	ise := core.NewISE(d, graph.NodeSetOf(d.Len(), 0, 1, 2, 3, 4), map[int]int{})
	m, err := FromISE(d, ise, "crc-step!") // name needs sanitizing
	if err != nil {
		t.Fatal(err)
	}
	v := m.Verilog()
	for _, frag := range []string{
		"module crc_step_(",
		"input  [31:0] in__s3",
		"assign w_n0 = in__s3 & 32'd1;",
		"assign w_n1 = 32'd0 - w_n0;", // $zero-sourced subtrahend
		"assign w_n2 = in__s3 >> 1;",
		"assign w_n4 = w_n2 ^ w_n3;",
		"endmodule",
	} {
		if !strings.Contains(v, frag) {
			t.Errorf("verilog missing %q:\n%s", frag, v)
		}
	}
}

func TestMultCellIs64Bit(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.Mult(isa.OpMULTU, prog.T0, prog.A0)
		b.MoveFrom(isa.OpMFLO, prog.T1) // external consumer of HILO
	})
	ise := core.NewISE(d, graph.NodeSetOf(d.Len(), 0, 1), map[int]int{})
	m, err := FromISE(d, ise, "mac")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Outputs) != 1 || m.Outputs[0].Width != 64 {
		t.Fatalf("outputs = %+v, want one 64-bit", m.Outputs)
	}
	outs, err := m.Eval(map[string]uint32{"in__a0": 0x10000, "in__a1": 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	// (a0+a1) * a0 = 0x20000 * 0x10000 = 2^33.
	if got := outs["out_n1"]; got != 1<<33 {
		t.Fatalf("product = %#x, want 2^33", got)
	}
	if !strings.Contains(m.Verilog(), "wire   [63:0] w_n1") {
		t.Error("64-bit wire missing from verilog")
	}
}

func TestEvalMissingInput(t *testing.T) {
	d := crcStepDFG(t)
	ise := core.NewISE(d, graph.NodeSetOf(d.Len(), 0, 1, 2, 3, 4), map[int]int{})
	m, err := FromISE(d, ise, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Eval(map[string]uint32{"in__s3": 1}); err == nil {
		t.Fatal("missing input accepted")
	}
}

// ssaBlock emits n random eligible ops, each writing a fresh register, with
// sources drawn from earlier results or the live-in pool — so every value
// has a unique home and replay is unambiguous.
func ssaBlock(t *testing.T, r *rand.Rand, n int) *dfg.DFG {
	t.Helper()
	liveIn := []prog.Reg{prog.A0, prog.A1, prog.A2, prog.A3, prog.K0, prog.K1}
	fresh := []prog.Reg{
		prog.T0, prog.T1, prog.T2, prog.T3, prog.T4, prog.T5, prog.T6, prog.T7,
		prog.T8, prog.T9, prog.S0, prog.S1, prog.S2, prog.S3, prog.S4, prog.S5,
		prog.S6, prog.S7, prog.V0, prog.V1, prog.GP, prog.FP, prog.SP, prog.RA,
	}
	if n > len(fresh) {
		n = len(fresh)
	}
	rOps := []isa.Opcode{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOR, isa.OpSLTU, isa.OpSLLV, isa.OpSRAV}
	iOps := []isa.Opcode{isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSRL, isa.OpSLL}
	return blockDFG(t, func(b *prog.Builder) {
		var defined []prog.Reg
		pickSrc := func() prog.Reg {
			pool := append(append([]prog.Reg(nil), liveIn...), defined...)
			return pool[r.Intn(len(pool))]
		}
		for i := 0; i < n; i++ {
			dst := fresh[i]
			if r.Intn(3) == 0 {
				b.I(iOps[r.Intn(len(iOps))], dst, pickSrc(), int32(r.Intn(30)+1))
			} else {
				b.R(rOps[r.Intn(len(rOps))], dst, pickSrc(), pickSrc())
			}
			defined = append(defined, dst)
		}
	})
}

// evalBlock interprets the whole block with isa.Compute over the
// instruction's architectural operands — an independent oracle for the
// netlist's wiring.
func evalBlock(t *testing.T, d *dfg.DFG, regs map[prog.Reg]uint32) []uint64 {
	t.Helper()
	vals := make([]uint64, d.Len())
	cur := map[prog.Reg]uint32{}
	for k, v := range regs {
		cur[k] = v
	}
	for i, n := range d.Nodes {
		in := n.Instr
		if in.Op == isa.OpHALT {
			continue
		}
		uses := in.Uses()
		var a, b uint32
		if len(uses) > 0 {
			a = cur[uses[0]]
		}
		if len(uses) > 1 {
			b = cur[uses[1]]
		}
		v, err := isa.Compute(in.Op, a, b, in.Imm)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		vals[i] = v
		if dst, ok := in.Defs(); ok {
			cur[dst] = uint32(v)
		}
	}
	return vals
}

// makeConvex splits s into convex pieces as the explorer's Make-Convex
// does (§4.3): a set with a path between members through an outside node is
// divided into the members above that node and the rest, recursively.
func makeConvex(d *dfg.DFG, s graph.NodeSet) []graph.NodeSet {
	w := d.ConvexViolator(s)
	if w < 0 {
		return []graph.NodeSet{s}
	}
	var above graph.NodeSet
	d.AncestorsInto(&above, w, s)
	rest := s.Subtract(above)
	var out []graph.NodeSet
	if !above.Empty() {
		out = append(out, makeConvex(d, above)...)
	}
	if !rest.Empty() {
		out = append(out, makeConvex(d, rest)...)
	}
	return out
}

// TestPropertyNetlistMatchesInterpreter: for random SSA blocks and random
// convex subsets, the netlist evaluates to exactly the values the
// instruction sequence produces.
func TestPropertyNetlistMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 80; trial++ {
		d := ssaBlock(t, r, 4+r.Intn(16))
		// Random convex subset of eligible nodes.
		set := graph.NewNodeSet(d.Len())
		for v := 0; v < d.Len(); v++ {
			if d.Nodes[v].ISEEligible() && r.Intn(2) == 0 {
				set.Add(v)
			}
		}
		parts := makeConvex(d, set)
		if len(parts) == 0 {
			continue
		}
		part := parts[r.Intn(len(parts))]
		if part.Empty() {
			continue
		}
		ise := core.NewISE(d, part, map[int]int{})
		m, err := FromISE(d, ise, "rand")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Random live-in registers; node values from the oracle.
		regs := map[prog.Reg]uint32{}
		for _, reg := range []prog.Reg{prog.A0, prog.A1, prog.A2, prog.A3, prog.K0, prog.K1} {
			regs[reg] = r.Uint32()
		}
		vals := evalBlock(t, d, regs)

		// Feed the module's inputs from the oracle's view.
		inputs := map[string]uint32{}
		for _, p := range m.Inputs {
			switch {
			case strings.HasPrefix(p.Name, "in_n"):
				producer, err := parseInt(strings.TrimPrefix(p.Name, "in_n"))
				if err != nil {
					t.Fatalf("trial %d: port %q: %v", trial, p.Name, err)
				}
				inputs[p.Name] = uint32(vals[producer])
			default:
				reg, ok := regByName("$" + strings.TrimPrefix(p.Name, "in__"))
				if !ok {
					t.Fatalf("trial %d: unknown port %q", trial, p.Name)
				}
				inputs[p.Name] = regs[reg]
			}
		}
		outs, err := m.Eval(inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, p := range m.Outputs {
			if got, want := outs[p.Name], vals[p.Node]; got != want {
				t.Fatalf("trial %d: %s = %#x, oracle %#x\n%s\n%s",
					trial, p.Name, got, want, d, m.Verilog())
			}
		}
	}
}

func parseInt(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	x := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q", c)
		}
		x = x*10 + int(c-'0')
	}
	return x, nil
}

func regByName(name string) (prog.Reg, bool) {
	for r := prog.Reg(0); int(r) < prog.NumRegs; r++ {
		if r.String() == name {
			return r, true
		}
	}
	return 0, false
}
