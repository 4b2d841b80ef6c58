// Package core implements the paper's contribution: ant-colony-optimization
// based instruction-set-extension exploration for multiple-issue processors
// (Chapter 4). The algorithm jointly decides, for every dataflow-graph
// operation, (a) hardware vs. software implementation, (b) which
// implementation option, and (c) the issue order — re-scheduling between
// decisions so that only critical-path operations are packed into ISEs.
package core

import "repro/internal/aco"

// Priority selects the scheduling-priority (SP) function used in the chosen
// probability (Eq. 1). The paper uses the number of child operations and
// names alternatives — e.g. operation mobility — as future work (§6).
type Priority int

// Scheduling priority functions.
const (
	// PriorityChildren ranks operations by their number of child operations
	// (the paper's default).
	PriorityChildren Priority = iota
	// PriorityHeight ranks by the length of the longest dependence path to
	// a leaf — the classic list-scheduling priority.
	PriorityHeight
	// PriorityMobility ranks by inverse mobility: operations with the least
	// scheduling slack first.
	PriorityMobility
)

// Params are the tunable constants of the exploration algorithm. Defaults
// follow §5.1 of the paper.
type Params struct {
	// Alpha weighs trail (pheromone) against merit in the chosen and
	// selected probabilities (Eq. 1 and 3).
	Alpha float64
	// Lambda weighs the scheduling priority (SP) term of the chosen
	// probability (Eq. 1).
	Lambda float64

	// Rho1..Rho5 are the trail evaporation factors of Fig. 4.3.5:
	// Rho1 rewards selected options after an improving iteration;
	// Rho2 decays unselected options after an improving iteration;
	// Rho3 punishes selected options after a worsening iteration;
	// Rho4 recovers unselected options after a worsening iteration;
	// Rho5 additionally punishes operations whose execution order moved
	// earlier in a worsening iteration.
	Rho1, Rho2, Rho3, Rho4, Rho5 float64

	// BetaCP boosts (by division) hardware options of critical-path
	// operations (merit case 1).
	BetaCP float64
	// BetaSize damps hardware options whose virtual subgraph is a single
	// operation (merit case 2).
	BetaSize float64
	// BetaIO damps hardware options whose virtual subgraph violates the
	// register-port constraint (merit case 3).
	BetaIO float64
	// BetaConvex damps hardware options whose virtual subgraph violates
	// convexity (merit case 3).
	BetaConvex float64

	// PEnd is the convergence threshold on the selected probability.
	PEnd float64
	// InitMeritSW and InitMeritHW seed the merit table.
	InitMeritSW, InitMeritHW float64

	// MaxIterations bounds one round's iteration count; if P_End is not
	// reached the converged-so-far selection is used. The paper notes larger
	// P_END "typically takes a longer time to converge"; the cap keeps runs
	// finite.
	MaxIterations int
	// MaxRounds bounds the number of ISEs explored per DFG.
	MaxRounds int
	// Restarts repeats the whole exploration per basic block, keeping the
	// best result (§5.1 runs 5).
	Restarts int
	// Seed drives the deterministic random stream.
	Seed int64

	// MaxISECycles is the pipestage timing constraint: an ISE may occupy at
	// most this many execution stages (0 = unlimited). The paper's Max_AEC
	// example (Fig. 4.3.8) shows a three-cycle ISE; the default is 3.
	MaxISECycles int

	// Priority selects the scheduling-priority function (§6 future work).
	Priority Priority

	// Workers bounds the worker pool that fans out restarts (core and
	// baseline exploration) and per-block explorations (flow.BuildPool).
	// 0 means one worker per item (every restart or block starts at once);
	// 1 forces sequential execution.
	// Results are identical for every worker count — only wall-clock time
	// changes (see DESIGN.md, "Concurrency model").
	Workers int

	// Ablation switches (all off for the paper's algorithm; see DESIGN.md).
	//
	// Greedy replaces the ACO roulette selection with a deterministic
	// argmax — "no exploration" ablation.
	Greedy bool
	// NoCriticalPath removes location awareness: no case-1 merit boost and
	// every virtual subgraph is treated as off the critical path.
	NoCriticalPath bool
	// NoMaxAEC disables the slack-aware area saving of merit case 4 by
	// treating every subgraph as critical.
	NoMaxAEC bool
	// NoEvalCache disables the schedule-evaluation memo cache — a
	// measurement switch for benchmarking the cache's contribution, not an
	// algorithm ablation: cached and uncached runs return identical results.
	NoEvalCache bool
}

// DefaultParams returns the paper's parameter set.
func DefaultParams() Params {
	return Params{
		Alpha:         0.25,
		Lambda:        0.1,
		Rho1:          4,
		Rho2:          2,
		Rho3:          2,
		Rho4:          2,
		Rho5:          0.4,
		BetaCP:        0.9,
		BetaSize:      0.7,
		BetaIO:        0.8,
		BetaConvex:    0.4,
		PEnd:          0.99,
		InitMeritSW:   100,
		InitMeritHW:   200,
		MaxIterations: 60,
		MaxRounds:     12,
		Restarts:      5,
		Seed:          1,
		MaxISECycles:  3,
	}
}

// FastParams returns a reduced-effort parameter set for tests and quick
// sweeps: fewer iterations and restarts, same constants.
func FastParams() Params {
	p := DefaultParams()
	p.MaxIterations = 25
	p.Restarts = 2
	return p
}

// Coefs returns the constants of the ACO frame both explorers share
// (aco.Tables).
func (p Params) Coefs() aco.Coefs {
	return aco.Coefs{
		Alpha: p.Alpha, PEnd: p.PEnd,
		Rho1: p.Rho1, Rho2: p.Rho2, Rho3: p.Rho3, Rho4: p.Rho4, Rho5: p.Rho5,
		InitSW: p.InitMeritSW, InitHW: p.InitMeritHW,
	}
}
