package aco

import (
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/isa"
	"repro/internal/prog"
)

// tablesDFG builds the DFG of a one-block program: a load (one software
// option), then ops adds and one xor, chained through T0.
func tablesDFG(t *testing.T, adds int) *dfg.DFG {
	t.Helper()
	b := prog.NewBuilder("tables")
	b.Load(isa.OpLW, prog.T0, prog.A0, 0)
	for i := 0; i < adds; i++ {
		b.R(isa.OpADD, prog.T0, prog.T0, prog.A1)
	}
	b.R(isa.OpXOR, prog.V0, prog.T0, prog.A2)
	b.Halt()
	p := b.MustBuild()
	lv := prog.ComputeLiveness(p)
	return dfg.Build(p, 0, 1, lv.LiveOut[0])
}

var testCoefs = Coefs{
	Alpha: 0.25, PEnd: 0.5,
	Rho1: 4, Rho2: 2, Rho3: 2, Rho4: 2, Rho5: 0.5,
	InitSW: 100, InitHW: 200,
}

// TestTablesSeedRebinds: rebinding warm tables to a smaller DFG and back
// gives rows equal to a fresh seed and grows nothing, and Reserve
// front-loads the growth of a later Seed.
func TestTablesSeedRebinds(t *testing.T) {
	a, b := tablesDFG(t, 4), tablesDFG(t, 1)
	var fresh Tables
	if !fresh.Seed(a, testCoefs) {
		t.Fatal("first Seed on empty tables reported no growth")
	}
	for x, row := range fresh.Trail {
		if len(row) != len(a.Nodes[x].SW)+len(a.Nodes[x].HW) || fresh.NumSW[x] != len(a.Nodes[x].SW) {
			t.Fatalf("row %d: %d options, %d software; node has %d/%d",
				x, len(row), fresh.NumSW[x], len(a.Nodes[x].SW), len(a.Nodes[x].HW))
		}
		for o := range row {
			want := testCoefs.InitHW
			if o < fresh.NumSW[x] {
				want = testCoefs.InitSW
			}
			if row[o] != 0 || fresh.Merit[x][o] != want {
				t.Fatalf("row %d option %d seeded to trail %v merit %v", x, o, row[o], fresh.Merit[x][o])
			}
		}
	}

	var tab Tables
	tab.Seed(a, testCoefs)
	for x := range tab.Trail {
		tab.UpdateTrail(x, 0, true, false)
		tab.Merit[x][0] = 7
	}
	if tab.Seed(b, testCoefs) {
		t.Error("Seed on a smaller DFG grew the tables")
	}
	if len(tab.Trail) != b.Len() {
		t.Errorf("rebound tables have %d rows, want %d", len(tab.Trail), b.Len())
	}
	if tab.Seed(a, testCoefs) {
		t.Error("Seed back on the first DFG grew the tables")
	}
	if !reflect.DeepEqual(tab.Trail, fresh.Trail) || !reflect.DeepEqual(tab.Merit, fresh.Merit) ||
		!reflect.DeepEqual(tab.NumSW, fresh.NumSW) {
		t.Error("reseeded tables differ from a fresh seed")
	}

	var pre Tables
	total, widest := 0, 0
	for _, node := range a.Nodes {
		opts := len(node.SW) + len(node.HW)
		total += opts
		widest = max(widest, opts)
	}
	if !pre.Reserve(a.Len(), total, widest) {
		t.Error("Reserve on empty tables reported no growth")
	}
	if pre.Seed(a, testCoefs) {
		t.Error("Seed after Reserve grew the tables")
	}
	// A growing Reserve replaces the arrays under bound rows; the next Seed
	// must rebuild them even on the same DFG.
	if !pre.Reserve(2*a.Len(), 2*total, widest) {
		t.Error("larger Reserve reported no growth")
	}
	pre.Seed(a, testCoefs)
	if !reflect.DeepEqual(pre.Trail, fresh.Trail) || !reflect.DeepEqual(pre.Merit, fresh.Merit) {
		t.Error("Seed after a growing Reserve differs from a fresh seed")
	}
}

// seededRows returns tables over tablesDFG(t, 1) with coefs c, and the
// indices of its single-option load row and a three-option add row.
func seededRows(t *testing.T, c Coefs) (tab *Tables, load, add int) {
	t.Helper()
	tab = &Tables{}
	tab.Seed(tablesDFG(t, 1), c)
	load, add = -1, -1
	for x, row := range tab.Trail {
		switch len(row) {
		case 1:
			load = x
		case 3:
			add = x
		}
	}
	if load < 0 || add < 0 {
		t.Fatalf("no one- and three-option rows among %v", tab.NumSW)
	}
	return tab, load, add
}

func TestTablesWeightsConvergedTaken(t *testing.T) {
	tab, load, add := seededRows(t, testCoefs)
	copy(tab.Trail[add], []float64{4, 0, 0})
	copy(tab.Merit[add], []float64{0, 8, 4})
	// Alpha 0.25: 0.25·trail + 0.75·merit.
	if w := tab.Weights(add); !reflect.DeepEqual(w, []float64{1, 6, 3}) {
		t.Errorf("Weights = %v, want [1 6 3]", w)
	}
	if got := tab.Taken(add); got != 1 {
		t.Errorf("Taken = %d, want 1", got)
	}
	// Option 1 holds 6/10 of the mass.
	if !tab.Converged(add) {
		t.Error("row with share 0.6 not converged at P_END 0.5")
	}
	tab.c.PEnd = 0.61
	if tab.Converged(add) {
		t.Error("row with share 0.6 converged at P_END 0.61")
	}
	// A single option is converged whatever its weight.
	tab.Merit[load][0] = 0
	if !tab.Converged(load) {
		t.Error("single-option row not converged")
	}
}

func TestTablesUpdateTrail(t *testing.T) {
	tab, _, x := seededRows(t, testCoefs)
	for _, tc := range []struct {
		name                   string
		start                  []float64
		improved, movedEarlier bool
		want                   []float64
	}{
		// ρ5 applies only after a worsening iteration.
		{"improved", []float64{1, 0.5, 3}, true, false, []float64{0, 0, 7}},
		{"improved moved", []float64{1, 0.5, 3}, true, true, []float64{0, 0, 7}},
		{"worsened", []float64{1, 0.5, 3}, false, false, []float64{3, 2.5, 1}},
		{"worsened moved", []float64{1, 0.5, 3}, false, true, []float64{2.5, 2, 0.5}},
		// Trails clamp at zero.
		{"worsened clamp", []float64{0.25, 0.25, 1}, false, true, []float64{1.75, 1.75, 0}},
	} {
		copy(tab.Trail[x], tc.start)
		tab.UpdateTrail(x, 2, tc.improved, tc.movedEarlier)
		if !reflect.DeepEqual(tab.Trail[x], tc.want) {
			t.Errorf("%s: trail %v, want %v", tc.name, tab.Trail[x], tc.want)
		}
	}
}
