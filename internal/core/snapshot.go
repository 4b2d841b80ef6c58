package core

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
)

// SnapshotVersion is the checkpoint format version. Bump it whenever the
// snapshot layout or the meaning of any field changes; ResumeFrom rejects
// mismatched versions instead of silently mis-restoring state.
const SnapshotVersion = 1

// Snapshot is a resumable checkpoint of one interrupted exploration. It is
// captured when a context cancels ExploreResumable between convergence
// iterations or between restarts, and it carries everything a later
// ResumeFrom needs to finish the run with the byte-identical Result an
// uninterrupted run would have produced: the per-restart seeds, the full
// Result of every finished restart, and the mid-restart ACO state (accepted
// ISEs, trail and merit tables, RNG draw count) of every restart caught in
// flight. All fields are plain values so the snapshot round-trips through
// JSON losslessly (encoding/json emits float64 with enough digits to
// round-trip exactly).
type Snapshot struct {
	Version int `json:"version"`
	// DFG and Nodes identify the explored graph; Machine the configuration.
	// ResumeFrom validates all three — a snapshot replayed against a
	// different input would silently produce garbage.
	DFG     string `json:"dfg"`
	Nodes   int    `json:"nodes"`
	Machine string `json:"machine"`
	// Params are the exploration parameters of the interrupted run. Resume
	// uses them verbatim; determinism holds only for identical parameters.
	Params Params `json:"params"`
	// BaseCycles is the all-software schedule length, re-derived and
	// cross-checked on resume.
	BaseCycles int `json:"base_cycles"`
	// Restarts holds one entry per restart, in restart order.
	Restarts []RestartState `json:"restarts"`
	// Flight is the convergence flight recorder's journal at capture time —
	// an observational sidecar, not part of the determinism contract. It is
	// absent when the interrupted run recorded nothing, and ResumeFrom
	// restores it into ResumeOptions.Flight so the journal survives
	// checkpoint/resume. Resume never reads it for decisions (obspurity).
	Flight []obs.FlightSample `json:"flight,omitempty"`
}

// RestartState is the checkpoint of one restart: finished (Done set),
// interrupted mid-run (Partial set), or not yet started (both nil).
type RestartState struct {
	Seed    int64           `json:"seed"`
	Done    *ResultState    `json:"done,omitempty"`
	Partial *RestartPartial `json:"partial,omitempty"`
}

// ResultState is the serializable form of a finished restart's Result. The
// Assignment and the per-ISE hardware metrics are not stored: both are
// deterministic functions of the DFG and the member/option sets, so resume
// recomputes them bit-identically via NewISE and BuildAssignment.
type ResultState struct {
	ISEs         []ISEState `json:"ises,omitempty"`
	BaseCycles   int        `json:"base_cycles"`
	FinalCycles  int        `json:"final_cycles"`
	Rounds       int        `json:"rounds"`
	CappedRounds int        `json:"capped_rounds,omitempty"`
	Iterations   int        `json:"iterations"`
}

// ISEState is the serializable form of one accepted ISE: the member nodes
// (ascending), the chosen hardware option per member (aligned with Nodes),
// and the marginal saving recorded at acceptance.
type ISEState struct {
	Nodes        []int `json:"nodes"`
	Options      []int `json:"options"`
	SavingCycles int   `json:"saving_cycles"`
}

// RestartPartial is the mid-restart checkpoint, captured at a convergence
// iteration boundary (Iter > 0, trail and merit tables included) or at a
// round boundary (Iter == 0, tables omitted — the round's Seed rebuilds them
// deterministically). RNGDraws is the number of times the restart's random
// source advanced; resume re-seeds and skips exactly that many draws, which
// replays the random stream as if the run had never stopped. Rounds and
// CappedRounds are the Result counters of the rounds finished so far.
type RestartPartial struct {
	Round        int         `json:"round"`
	Iter         int         `json:"iter"`
	Rounds       int         `json:"rounds"`
	CappedRounds int         `json:"capped_rounds,omitempty"`
	Iterations   int         `json:"iterations"`
	CurLen       int         `json:"cur_len"`
	Fixed        []ISEState  `json:"fixed,omitempty"`
	Trail        [][]float64 `json:"trail,omitempty"`
	Merit        [][]float64 `json:"merit,omitempty"`
	TetOld       int         `json:"tet_old,omitempty"`
	PrevOrder    []int       `json:"prev_order,omitempty"`
	RNGDraws     uint64      `json:"rng_draws"`
}

// CompletedRestarts counts the restarts whose Result is already final.
func (s *Snapshot) CompletedRestarts() int {
	n := 0
	for _, st := range s.Restarts {
		if st.Done != nil {
			n++
		}
	}
	return n
}

// validate checks that the snapshot belongs to (d, cfg) and is structurally
// usable for resumption.
func (s *Snapshot) validate(d *dfg.DFG, cfg machine.Config) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.DFG != d.Name || s.Nodes != d.Len() {
		return fmt.Errorf("core: snapshot is for DFG %s (%d nodes), not %s (%d nodes)",
			s.DFG, s.Nodes, d.Name, d.Len())
	}
	if s.Machine != cfg.Name {
		return fmt.Errorf("core: snapshot is for machine %s, not %s", s.Machine, cfg.Name)
	}
	restarts := s.Params.Restarts
	if restarts < 1 {
		restarts = 1
	}
	if len(s.Restarts) != restarts {
		return fmt.Errorf("core: snapshot has %d restart entries, params want %d",
			len(s.Restarts), restarts)
	}
	return nil
}

// iseState converts an accepted ISE to its serializable form.
func iseState(e *ISE) ISEState {
	nodes := e.Nodes.Values()
	st := ISEState{
		Nodes:        nodes,
		Options:      make([]int, len(nodes)),
		SavingCycles: e.SavingCycles,
	}
	for i, v := range nodes {
		st.Options[i] = e.Option[v]
	}
	return st
}

func iseStates(ises []*ISE) []ISEState {
	out := make([]ISEState, len(ises))
	for i, e := range ises {
		out[i] = iseState(e)
	}
	return out
}

// iseFromState rebuilds an ISE on d. NewISE recomputes delay, latency, area
// and port counts — all deterministic functions of the member/option sets —
// so the rebuilt ISE is identical to the one that was checkpointed.
func iseFromState(d *dfg.DFG, st ISEState) (*ISE, error) {
	nodes := graph.NewNodeSet(d.Len())
	opts := make(map[int]int, len(st.Nodes))
	for i, v := range st.Nodes {
		if v < 0 || v >= d.Len() || i >= len(st.Options) {
			return nil, fmt.Errorf("core: snapshot ISE references node %d outside DFG %s", v, d.Name)
		}
		if hw := len(d.Nodes[v].HW); st.Options[i] < 0 || st.Options[i] >= hw {
			return nil, fmt.Errorf("core: snapshot ISE option %d out of range for node %d of %s",
				st.Options[i], v, d.Name)
		}
		nodes.Add(v)
		opts[v] = st.Options[i]
	}
	ise := NewISE(d, nodes, opts)
	ise.SavingCycles = st.SavingCycles
	return ise, nil
}

func isesFromStates(d *dfg.DFG, sts []ISEState) ([]*ISE, error) {
	out := make([]*ISE, len(sts))
	for i, st := range sts {
		ise, err := iseFromState(d, st)
		if err != nil {
			return nil, err
		}
		out[i] = ise
	}
	return out, nil
}

// State converts r to its serializable ResultState. The distributed worker
// (internal/cluster) ships shard results over the wire in this form; the
// coordinator rebuilds them with ResultFromState. CacheHits/CacheMisses are
// intentionally absent — they are outside the determinism contract and
// travel separately as observability data.
func (r *Result) State() *ResultState { return resultState(r) }

// ResultFromState rebuilds a Result on d from its serializable form, exactly
// as checkpoint resumption does: the assignment and per-ISE hardware metrics
// are recomputed deterministically from the member/option sets, so the
// rebuilt Result is byte-identical to the one State serialized.
func ResultFromState(d *dfg.DFG, st *ResultState) (*Result, error) {
	return resultFromState(d, st)
}

// resultState converts a finished restart's Result to its serializable form.
func resultState(r *Result) *ResultState {
	return &ResultState{
		ISEs:         iseStates(r.ISEs),
		BaseCycles:   r.BaseCycles,
		FinalCycles:  r.FinalCycles,
		Rounds:       r.Rounds,
		CappedRounds: r.CappedRounds,
		Iterations:   r.Iterations,
	}
}

// resultFromState rebuilds a restart Result on d.
func resultFromState(d *dfg.DFG, st *ResultState) (*Result, error) {
	ises, err := isesFromStates(d, st.ISEs)
	if err != nil {
		return nil, err
	}
	return &Result{
		ISEs:         ises,
		Assignment:   BuildAssignment(d, ises),
		BaseCycles:   st.BaseCycles,
		FinalCycles:  st.FinalCycles,
		Rounds:       st.Rounds,
		CappedRounds: st.CappedRounds,
		Iterations:   st.Iterations,
	}, nil
}

func copyTables(t [][]float64) [][]float64 {
	out := make([][]float64, len(t))
	for i, row := range t {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// restoreTables copies snapshot rows into freshly initialized tables,
// validating the shape against what Seed derived from the DFG.
func restoreTables(dst, src [][]float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("core: snapshot table has %d rows, DFG wants %d", len(src), len(dst))
	}
	for i := range dst {
		if len(dst[i]) != len(src[i]) {
			return fmt.Errorf("core: snapshot table row %d has %d options, DFG wants %d",
				i, len(src[i]), len(dst[i]))
		}
		copy(dst[i], src[i])
	}
	return nil
}
