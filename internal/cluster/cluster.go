// Package cluster shards one exploration job across a fleet of iseserve
// nodes and returns a result byte-identical to the single-node answer.
//
// The architecture is coordinator/worker over a small stdlib net/http RPC
// surface (see Mount):
//
//	POST /v1/shards/claim                    worker pulls the next shard
//	POST /v1/shards/{job}/{shard}/heartbeat  lease renewal + snapshot upload
//	POST /v1/shards/{job}/{shard}/result     shard result (or error) delivery
//
// A shard is a contiguous restart range of one job (parallel.SplitRanges):
// restart r of the job runs with seed Params.Seed + r*7919 no matter which
// shard — or node — executes it, so sharding never changes any restart's
// random stream. Each worker reduces its own range with the strict
// left-to-right fold of core.BestResult (via the ordinary exploration
// entrypoints), and the coordinator folds the shard winners in shard order;
// because every comparison is strict, that composition selects exactly the
// element a single global scan would (see core.BestResult), which is the
// whole determinism argument — worker count, node count and shard count
// never change the answer.
//
// Fault tolerance rides on the same machinery as checkpoint/resume: workers
// run their shard in time slices, uploading a core.Snapshot with each
// heartbeat; when a worker's lease lapses (or it reports an error), the
// coordinator re-queues the shard with its last snapshot and the next worker
// resumes it via core.ResumeFrom — RNG replay makes the retried shard
// reproduce the lost one exactly (DESIGN.md §11, §15).
//
// Each worker shard memoizes schedule evaluations in its own local
// core.EvalCache; no cache is shared across the fleet.
package cluster

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/vm"
)

// MachineSpec selects the target machine configuration of a workload. It
// mirrors the service layer's spec (the service delegates here; cluster must
// not import service).
type MachineSpec struct {
	Issue      int `json:"issue"`
	ReadPorts  int `json:"read_ports"`
	WritePorts int `json:"write_ports"`
}

// Workload is the wire description of one exploration workload: everything a
// worker needs to rebuild the job's DFGs bit-identically on its own node.
// Exactly one of Bench and Program selects the kernel. Params are the fully
// resolved exploration parameters of the whole job (shard specs derive their
// own restart window from them).
type Workload struct {
	// Name labels the workload and names Program source when one is given.
	Name string `json:"name,omitempty"`
	// Bench names a built-in benchmark; OptLevel its optimization level
	// (default O3).
	Bench    string `json:"bench,omitempty"`
	OptLevel string `json:"opt,omitempty"`
	// Program is PISA assembly source, the alternative to Bench. Optimize
	// runs copy-propagation/DCE on it before exploration.
	Program  string `json:"program,omitempty"`
	Optimize bool   `json:"optimize,omitempty"`
	// Hot is the number of hot basic blocks to lift (default 1).
	Hot     int         `json:"hot,omitempty"`
	Machine MachineSpec `json:"machine"`
	Params  core.Params `json:"params"`
}

func (w Workload) hot() int {
	if w.Hot <= 0 {
		return 1
	}
	return w.Hot
}

func (w Workload) optLevel() string {
	if w.OptLevel == "" {
		return "O3"
	}
	return w.OptLevel
}

func (w Workload) restarts() int {
	if w.Params.Restarts < 1 {
		return 1
	}
	return w.Params.Restarts
}

// MachineConfig returns the machine configuration the workload targets.
func (w Workload) MachineConfig() machine.Config {
	return machine.New(w.Machine.Issue, w.Machine.ReadPorts, w.Machine.WritePorts)
}

// Validate checks the workload is well-formed enough to build.
func (w Workload) Validate() error {
	if (w.Bench == "") == (w.Program == "") {
		return fmt.Errorf("cluster: exactly one of bench and program must be set")
	}
	if w.Hot < 0 {
		return fmt.Errorf("cluster: hot must be >= 0, got %d", w.Hot)
	}
	if err := w.MachineConfig().Validate(); err != nil {
		return err
	}
	if w.Params.Restarts < 0 || w.Params.MaxRounds < 0 || w.Params.MaxIterations < 0 {
		return fmt.Errorf("cluster: params counts must be >= 0")
	}
	return nil
}

// BuildDFGs returns the workload's hot-block dataflow graphs. A registry
// benchmark's are the shared, read-only DFGs of bench.Benchmark.HotDFGs,
// profiled and built once per process however many times a job asks (the
// manager, the coordinator and every shard each call this). An inline
// program is parsed, profiled on the reference VM and lifted afresh on each
// call. Every step is deterministic, so the coordinator and every worker —
// possibly on different machines — explore byte-identical graphs. This is
// the same first link in the resume-determinism chain the service layer
// relies on (service.JobSpec delegates its own workload building here).
func (w Workload) BuildDFGs() ([]*dfg.DFG, error) {
	var ds []*dfg.DFG
	if w.Program != "" {
		name := w.Name
		if name == "" {
			name = "program"
		}
		program, err := prog.Parse(name, w.Program)
		if err != nil {
			return nil, err
		}
		if w.Optimize {
			if program, err = opt.Optimize(program); err != nil {
				return nil, err
			}
		}
		profile, err := vm.NewMachine(bench.MemSize).Run(program, bench.MaxSteps)
		if err != nil {
			return nil, err
		}
		ds = dfg.BuildAll(program, profile.HotBlocks(program, w.hot()), profile.BlockCounts)
	} else {
		bm, err := bench.Get(w.Bench, w.optLevel())
		if err != nil {
			return nil, err
		}
		if ds, err = bm.HotDFGs(w.hot()); err != nil {
			return nil, err
		}
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("cluster: no explorable basic blocks")
	}
	return ds, nil
}
