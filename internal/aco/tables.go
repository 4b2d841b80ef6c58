package aco

import "repro/internal/dfg"

// Coefs are the constants of the ACO frame, fixed for a whole exploration.
type Coefs struct {
	// Alpha weighs trail against merit in the selected probability (Eq. 3).
	Alpha float64
	// PEnd is the selected probability at which a row has converged.
	PEnd float64
	// Rho1..Rho5 are the trail steps of Fig. 4.3.5.
	Rho1, Rho2, Rho3, Rho4, Rho5 float64
	// InitSW and InitHW are the merits a round seeds software and hardware
	// options with.
	InitSW, InitHW float64
}

// Tables are the per-option trail and merit tables of one DFG: row x holds
// node x's NumSW[x] software options first and its hardware options after.
// The rows slice two flat backing arrays whose structure is built once per
// DFG; Seed re-seeds the values each round, so round boundaries allocate
// nothing. The arrays are grow-on-demand arenas: binding the tables to a
// smaller (or equal, after Reserve) DFG reslices the warm arrays instead of
// reallocating them.
type Tables struct {
	Trail, Merit [][]float64
	NumSW        []int

	c Coefs
	// trailBuf and meritBuf back every row. arena: resliced when the DFG
	// changes, owned by the rows for the tables' lifetime.
	trailBuf, meritBuf []float64
	w                  []float64 // arena: Weights' result, sized to the widest row
	shape              *dfg.DFG  // DFG the row structure was built for
}

// Reserve presizes the tables for DFGs of up to n nodes, totalOpts options
// and maxRow options in the widest row, and reports whether any array had to
// grow. The next Seed rebuilds the row structure.
//
//alloc:amortized grows the arrays only when a larger DFG arrives; later calls reslice them
func (t *Tables) Reserve(n, totalOpts, maxRow int) bool {
	grew := false
	t.Trail = reserve(t.Trail, n, &grew)
	t.Merit = reserve(t.Merit, n, &grew)
	t.NumSW = reserve(t.NumSW, n, &grew)
	t.trailBuf = reserve(t.trailBuf, totalOpts, &grew)
	t.meritBuf = reserve(t.meritBuf, totalOpts, &grew)
	t.w = reserve(t.w, maxRow, &grew)
	t.shape = nil
	return grew
}

func reserve[T any](buf []T, n int, grew *bool) []T {
	if cap(buf) < n {
		*grew = true
		return make([]T, n)
	}
	return buf[:n]
}

// Seed starts a round on d: every trail to 0, every merit to c.InitSW or
// c.InitHW. It reports whether binding the tables to d grew an array.
//
//alloc:amortized the row structure is rebuilt, and may grow, only when the DFG changes
func (t *Tables) Seed(d *dfg.DFG, c Coefs) bool {
	t.c = c
	n := d.Len()
	grew := false
	if t.shape != d {
		total, widest := 0, 0
		for _, node := range d.Nodes {
			opts := len(node.SW) + len(node.HW)
			total += opts
			widest = max(widest, opts)
		}
		grew = t.Reserve(n, total, widest)
		off := 0
		for i, node := range d.Nodes {
			t.NumSW[i] = len(node.SW)
			opts := len(node.SW) + len(node.HW)
			//lint:ignore arenaescape trail rows alias trailBuf within the same owner; rows and backing array are rebuilt together on DFG change
			t.Trail[i] = t.trailBuf[off : off+opts : off+opts]
			//lint:ignore arenaescape merit rows alias meritBuf within the same owner; rows and backing array are rebuilt together on DFG change
			t.Merit[i] = t.meritBuf[off : off+opts : off+opts]
			off += opts
		}
		t.shape = d
	}
	for i := 0; i < n; i++ {
		trail, merit := t.Trail[i], t.Merit[i]
		for o := range trail {
			trail[o] = 0
			if o < t.NumSW[i] {
				merit[o] = c.InitSW
			} else {
				merit[o] = c.InitHW
			}
		}
	}
	return grew
}

// Weights returns row x's selected-probability weights, the numerators of
// Eq. 3: Alpha·trail + (1−Alpha)·merit per option. The result is the tables'
// arena, valid until the next Weights call.
func (t *Tables) Weights(x int) []float64 {
	trail, merit := t.Trail[x], t.Merit[x]
	w := t.w[:len(trail)]
	for o := range w {
		w[o] = t.c.Alpha*trail[o] + (1-t.c.Alpha)*merit[o]
	}
	//lint:ignore arenaescape callers consume the weights before the next Weights call
	return w
}

// Converged is the P_END test of Eq. 3/4 on row x: its likeliest option's
// selected probability reaches PEnd. A single option is trivially converged.
func (t *Tables) Converged(x int) bool {
	if len(t.Trail[x]) <= 1 {
		return true
	}
	share, _ := MaxShare(t.Weights(x))
	return share >= t.c.PEnd
}

// Taken returns row x's option with the largest selected probability.
func (t *Tables) Taken(x int) int {
	_, o := MaxShare(t.Weights(x))
	return o
}

// UpdateTrail applies Fig. 4.3.5 to row x, whose node took option chosen
// this iteration. After an iteration whose execution time improved on (or
// matched) the best so far, the chosen option gains ρ1 and the others lose
// ρ2; after a worsening one the chosen option loses ρ3 and the others regain
// ρ4, and when the node's execution order moved earlier every option also
// loses ρ5. Trails are clamped at zero.
func (t *Tables) UpdateTrail(x, chosen int, improved, movedEarlier bool) {
	row := t.Trail[x]
	for o := range row {
		sel := chosen == o
		switch {
		case improved && sel:
			row[o] += t.c.Rho1
		case improved:
			row[o] -= t.c.Rho2
		case sel:
			row[o] -= t.c.Rho3
		default:
			row[o] += t.c.Rho4
		}
		if !improved && movedEarlier {
			row[o] -= t.c.Rho5
		}
		if row[o] < 0 {
			row[o] = 0
		}
	}
}
