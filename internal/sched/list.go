package sched

import (
	"sync"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
)

// Schedule is the result of list-scheduling a DFG under an assignment.
type Schedule struct {
	// Length is the makespan in cycles.
	Length int
	// NodeCycle[i] is the issue cycle of node i (its ISE's issue cycle for
	// grouped nodes).
	NodeCycle []int
	// NodeDone[i] is the cycle in which node i's result is available minus
	// one, i.e. the last cycle its instruction occupies.
	NodeDone []int
	// Critical flags the nodes on the latency-weighted critical path of the
	// dependence graph — the operations whose compression can shorten the
	// schedule.
	Critical graph.NodeSet
}

// macro is one schedulable unit: a software node or a whole ISE group.
type macro struct {
	id      int
	nodes   []int
	lat     int
	reads   int
	writes  int
	isISE   bool
	class   int // isa.Class for software macros
	minNode int
}

// schedulerPool recycles kernels for ListSchedule and ListScheduleLength, so
// callers without a Scheduler of their own amortize the arena allocations.
// Pooled kernels produce identical results regardless of which goroutine
// last used them, so determinism is unaffected.
var schedulerPool = sync.Pool{New: func() any { return NewScheduler() }}

// ListSchedule schedules d under assignment a on machine cfg and returns the
// schedule. It fails if the assignment is invalid or demands more ports than
// the machine has.
//
// It is the detaching API over Scheduler: the returned schedule is a copy
// the caller owns, which is what one-off callers (replacement, reports, the
// examples) need. Hot paths (exploration workers, flow pricing) hold a
// Scheduler directly and skip the copy.
func ListSchedule(d *dfg.DFG, a Assignment, cfg machine.Config) (*Schedule, error) {
	kern := schedulerPool.Get().(*Scheduler)
	s, err := kern.Schedule(d, a, cfg)
	if err != nil {
		schedulerPool.Put(kern)
		return nil, err
	}
	out := s.Clone()
	schedulerPool.Put(kern)
	return out, nil
}

// ListScheduleLength returns only the makespan of scheduling d under a on
// cfg. It uses a pooled kernel and never detaches the schedule from the
// kernel's arena, so repeated length queries (the memo cache's miss path when
// no caller-owned Scheduler is available) allocate nothing in steady state.
func ListScheduleLength(d *dfg.DFG, a Assignment, cfg machine.Config) (int, error) {
	kern := schedulerPool.Get().(*Scheduler)
	s, err := kern.Schedule(d, a, cfg)
	n := 0
	if err == nil {
		n = s.Length
	}
	schedulerPool.Put(kern)
	return n, err
}

func totalLatency(macros []macro) int {
	t := 0
	for _, m := range macros {
		t += m.lat
	}
	return t
}

// removeInt deletes the first occurrence of v from s in place. The caller
// must own s's backing array and replace s with the return value — the
// kernel and the reference scheduler (reference_test.go) both reassign their
// local ready list and never alias it.
func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			//lint:ignore sliceclobber ready list is scheduler-local; callers reassign the result and hold no other alias
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
