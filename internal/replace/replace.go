// Package replace implements the final stage of the design flow (§3.1): ISE
// replacement and instruction scheduling. It discovers every occurrence of
// the selected ISEs in a DFG (subgraph matching), replaces non-overlapping
// matches in priority order, and reschedules the block on the target machine
// to obtain its post-customization cycle count.
package replace

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/merging"
	"repro/internal/sched"
)

// maxMatchesPerISE bounds pattern occurrences considered per DFG; unrolled
// loops rarely contain more instances.
const maxMatchesPerISE = 64

// Instance is one deployed ISE occurrence inside a DFG. Nodes and Option
// are read-only: the candidate's own instance shares both with Cand.ISE.
type Instance struct {
	Cand   *merging.Candidate
	Nodes  graph.NodeSet
	Option map[int]int // target node -> hardware option index
}

// Apply deploys the selected candidates into d and schedules the block.
// Deployment runs in two passes: first the instances the exploration itself
// proved (their joint deployment reproduces the explored result), then
// additional pattern matches in gain order. A single gain-ordered pass would
// let a higher-ranked candidate's *shifted* match inside a periodic block
// steal the nodes of a lower-ranked candidate's own instance.
func Apply(d *dfg.DFG, cfg machine.Config, selected []*merging.Candidate) (*sched.Schedule, sched.Assignment, []Instance, error) {
	return ApplyWith(nil, d, cfg, selected)
}

// ApplyWith is Apply scheduling on kern, the caller's reusable kernel. A nil
// kern falls back to sched.ListSchedule. With a kernel the returned Schedule
// and Assignment alias its arena — valid until kern's next call; callers
// that retain them must copy them. The flow's constraint sweeps call this
// once per block per sweep point, so arena reuse across those calls is the
// steady-state hot path.
func ApplyWith(kern *sched.Scheduler, d *dfg.DFG, cfg machine.Config, selected []*merging.Candidate) (*sched.Schedule, sched.Assignment, []Instance, error) {
	ordered := append([]*merging.Candidate(nil), selected...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Gain > ordered[j].Gain
	})

	instances := deploy(d, cfg, ordered, nil)
	a := assignment(kern, d, instances)
	s, err := schedule(kern, d, a, cfg)
	if err != nil {
		// Instances pairwise free of mutual dependence can still close a
		// cycle through three or more of them. Deploy again, skipping each
		// instance the scheduler rejects together with those placed before
		// it. That keeps the set a check on every placement would keep,
		// since a set that schedules has no unschedulable subset, and only
		// a failing block pays for the checks.
		instances = deploy(d, cfg, ordered, func(insts []Instance) bool {
			_, err := schedule(kern, d, assignment(kern, d, insts), cfg)
			return err == nil
		})
		a = assignment(kern, d, instances)
		s, err = schedule(kern, d, a, cfg)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("replace: %s: %w", d.Name, err)
	}
	return s, a, instances, nil
}

// deploy places the instances of the gain-ordered candidates in Apply's two
// passes. An instance is skipped when it is mutually dependent with one
// already placed, or when schedulable is non-nil and rejects the placed
// instances plus it.
func deploy(d *dfg.DFG, cfg machine.Config, ordered []*merging.Candidate, schedulable func([]Instance) bool) []Instance {
	used := graph.NewNodeSet(d.Len())
	var instances []Instance
	place := func(inst Instance, ok bool) {
		if !ok {
			return
		}
		// An instance mutually dependent with an already placed one cannot
		// co-exist: neither could issue atomically.
		for _, prev := range instances {
			if d.Interlocked(inst.Nodes, prev.Nodes) {
				return
			}
		}
		if schedulable != nil && !schedulable(append(instances[:len(instances):len(instances)], inst)) {
			return
		}
		instances = append(instances, inst)
		used = used.Union(inst.Nodes)
	}
	for _, cand := range ordered {
		if cand.DFG == d {
			place(ownInstance(d, cfg, cand, used))
		}
	}
	for _, cand := range ordered {
		for _, inst := range crossMatches(d, cfg, cand, used) {
			place(inst, true)
		}
	}
	return instances
}

// assignment maps instance gi's nodes to hardware group gi. With a kernel
// it fills kern's AllSoftware buffer, valid until the kernel's next
// AllSoftware call; without one it allocates.
func assignment(kern *sched.Scheduler, d *dfg.DFG, instances []Instance) sched.Assignment {
	var a sched.Assignment
	if kern != nil {
		a = kern.AllSoftware(d.Len())
	} else {
		a = sched.AllSoftware(d.Len())
	}
	for gi, inst := range instances {
		for v := inst.Nodes.Next(0); v >= 0; v = inst.Nodes.Next(v + 1) {
			a[v] = sched.NodeChoice{Kind: sched.KindHW, Opt: inst.Option[v], Group: gi}
		}
	}
	return a
}

func schedule(kern *sched.Scheduler, d *dfg.DFG, a sched.Assignment, cfg machine.Config) (*sched.Schedule, error) {
	if kern != nil {
		return kern.Schedule(d, a, cfg)
	}
	return sched.ListSchedule(d, a, cfg)
}

// legalInstance checks non-overlap, eligibility, convexity and port limits.
func legalInstance(d *dfg.DFG, cfg machine.Config, nodes, used graph.NodeSet) bool {
	if nodes.Intersect(used).Len() > 0 {
		return false
	}
	if !d.AllEligible(nodes) || !d.IsConvex(nodes) {
		return false
	}
	return d.In(nodes) <= cfg.ReadPorts && d.Out(nodes) <= cfg.WritePorts
}

// ownInstance deploys the exploration-proved occurrence of cand in its own
// source DFG. The instance shares cand's node set and option map.
func ownInstance(d *dfg.DFG, cfg machine.Config, cand *merging.Candidate, used graph.NodeSet) (Instance, bool) {
	if !legalInstance(d, cfg, cand.ISE.Nodes, used) {
		return Instance{}, false
	}
	return Instance{Cand: cand, Nodes: cand.ISE.Nodes, Option: cand.ISE.Option}, true
}

// crossMatches finds additional legal, non-overlapping occurrences of cand's
// pattern in d.
func crossMatches(d *dfg.DFG, cfg machine.Config, cand *merging.Candidate, used graph.NodeSet) []Instance {
	var out []Instance
	claim := used.Clone()
	for _, m := range cand.Matches(d, maxMatchesPerISE) {
		nodes := m.Targets(d.Len())
		if !legalInstance(d, cfg, nodes, claim) {
			continue
		}
		option := make(map[int]int, len(m))
		for p, t := range m {
			option[t] = cand.ISE.Option[p]
		}
		out = append(out, Instance{Cand: cand, Nodes: nodes, Option: option})
		claim = claim.Union(nodes)
	}
	return out
}
