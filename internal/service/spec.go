// Package service is the exploration-as-a-service layer: a job manager with
// a bounded FIFO queue, runner goroutines driving core exploration on their
// own parallel worker pools, durable JSON checkpoints with resume, and an
// SSE event bus for restart-level progress. cmd/iseserve wraps it in a
// stdlib net/http daemon. See DESIGN.md §11 for the architecture and the
// resume-determinism argument.
package service

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
)

// MachineSpec selects the target machine configuration of a job.
type MachineSpec struct {
	Issue      int `json:"issue"`
	ReadPorts  int `json:"read_ports"`
	WritePorts int `json:"write_ports"`
}

// JobSpec is the submission body of POST /v1/jobs. Exactly one of Bench and
// Program selects the kernel; Machine is mandatory. Everything else has a
// sensible default. The spec is stored verbatim in checkpoints, so resuming
// a job after a daemon restart rebuilds the identical workload.
type JobSpec struct {
	// Name is a client-chosen label, echoed in statuses and used as the
	// program name when Program source is submitted.
	Name string `json:"name,omitempty"`
	// Bench names a built-in benchmark (see internal/bench); OptLevel picks
	// its optimization level (default O3).
	Bench    string `json:"bench,omitempty"`
	OptLevel string `json:"opt,omitempty"`
	// Program is PISA assembly source, the alternative to Bench. Optimize
	// runs copy-propagation/DCE on it before exploration.
	Program  string `json:"program,omitempty"`
	Optimize bool   `json:"optimize,omitempty"`
	// Hot is the number of hot basic blocks to explore (default 1). Blocks
	// are explored sequentially in profile order; each finished block is a
	// checkpoint boundary.
	Hot     int         `json:"hot,omitempty"`
	Machine MachineSpec `json:"machine"`
	// Params override the exploration parameters (default core.DefaultParams).
	Params *core.Params `json:"params,omitempty"`
	// DeadlineMS bounds the job's running time in milliseconds; 0 uses the
	// server default (which may be unlimited).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace records a Chrome trace-event timeline of the job's exploration,
	// retrievable at GET /v1/jobs/{id}/trace (Perfetto-loadable). Tracing is
	// observation-only — it never changes results — but the event buffer
	// grows with exploration size, so it is opt-in.
	Trace bool `json:"trace,omitempty"`
	// Distributed, when present, shards each block's exploration across the
	// fleet attached to this server's cluster coordinator instead of running
	// it on the local worker pool. Requires the server to run with
	// -coordinator; results are byte-identical to a local run (see
	// DESIGN.md §15).
	Distributed *DistributedSpec `json:"distributed,omitempty"`
}

// DistributedSpec parameterizes fleet execution of a job.
type DistributedSpec struct {
	// Shards is the number of contiguous restart ranges each block is split
	// into (default 1; clamped to the restart count). More shards than fleet
	// workers is fine — workers pull shards as they free up.
	Shards int `json:"shards,omitempty"`
}

const maxProgramBytes = 1 << 20

// maxRestarts bounds a job's restart count. With Params.Workers 0 every
// restart runs at once on its own goroutine, with its own scheduling kernel
// and explorer arenas, so the restart count sizes the job's memory.
const maxRestarts = 1024

func (s *JobSpec) validate() error {
	if (s.Bench == "") == (s.Program == "") {
		return fmt.Errorf("exactly one of bench and program must be set")
	}
	if len(s.Program) > maxProgramBytes {
		return fmt.Errorf("program source exceeds %d bytes", maxProgramBytes)
	}
	if s.Hot < 0 {
		return fmt.Errorf("hot must be >= 0, got %d", s.Hot)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be >= 0, got %d", s.DeadlineMS)
	}
	if err := s.machineConfig().Validate(); err != nil {
		return err
	}
	if p := s.Params; p != nil {
		if p.Restarts < 0 || p.MaxRounds < 0 || p.MaxIterations < 0 {
			return fmt.Errorf("params counts must be >= 0")
		}
		if p.Restarts > maxRestarts {
			return fmt.Errorf("params restarts must be <= %d, got %d", maxRestarts, p.Restarts)
		}
	}
	if d := s.Distributed; d != nil && d.Shards < 0 {
		return fmt.Errorf("distributed.shards must be >= 0, got %d", d.Shards)
	}
	return nil
}

func (s *JobSpec) machineConfig() machine.Config {
	return machine.New(s.Machine.Issue, s.Machine.ReadPorts, s.Machine.WritePorts)
}

func (s *JobSpec) params() core.Params {
	if s.Params != nil {
		return *s.Params
	}
	return core.DefaultParams()
}

func (s *JobSpec) hot() int {
	if s.Hot <= 0 {
		return 1
	}
	return s.Hot
}

func (s *JobSpec) optLevel() string {
	if s.OptLevel == "" {
		return "O3"
	}
	return s.OptLevel
}

func (s *JobSpec) deadline(def time.Duration) time.Duration {
	if s.DeadlineMS > 0 {
		return time.Duration(s.DeadlineMS) * time.Millisecond
	}
	return def
}

// workload is the job's kernel + parameters in the fleet's wire form. The
// cluster package owns workload building (every fleet node rebuilds the same
// graphs from it); the service delegates so there is exactly one
// implementation of the first link in the resume-determinism chain.
func (s *JobSpec) workload() cluster.Workload {
	return cluster.Workload{
		Name:     s.Name,
		Bench:    s.Bench,
		OptLevel: s.OptLevel,
		Program:  s.Program,
		Optimize: s.Optimize,
		Hot:      s.Hot,
		Machine:  cluster.MachineSpec(s.Machine),
		Params:   s.params(),
	}
}

// buildDFGs rebuilds the job's workload: parse or fetch the kernel, profile
// it on the reference VM, and lift the hot blocks to dataflow graphs. Every
// step is deterministic, so a resumed job (possibly in a different daemon
// process) explores byte-identical graphs — this is the first link in the
// resume-determinism chain (DESIGN.md §11).
func (s *JobSpec) buildDFGs() ([]*dfg.DFG, error) {
	return s.workload().BuildDFGs()
}
