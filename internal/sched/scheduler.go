package sched

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Scheduler is a reusable list-scheduling kernel. It computes exactly what
// ListSchedule computes — same schedules, same critical sets, same errors in
// the same order — but owns every intermediate buffer as a scratch arena that
// is recycled across calls, so steady-state scheduling of a stable-shape DFG
// performs zero heap allocations (pinned by BenchmarkSchedSteadyState and
// TestSchedulerSteadyStateAllocs). Exploration workers each own one Scheduler
// and funnel every evaluation through it; see DESIGN.md §10.
//
// The returned *Schedule aliases the arena: it is valid only until the next
// Schedule call on the same Scheduler. Callers that retain schedules must
// Clone them — ListSchedule does exactly that. A Scheduler must not be shared
// between goroutines; the parallel stages hand one to each worker
// (parallel.ForEachWorkerCtx).
//
// Every call validates, measures, contracts and list-schedules from scratch;
// the kernel carries nothing from one call to the next except its scratch
// buffers, so a failed call can never affect the next one. Results and
// errors are pinned differentially against listScheduleReference.
type Scheduler struct {
	// Group table of the current call, CSR layout: gids are the distinct
	// raw group IDs ascending, members of group gi are
	// gMembers[gStart[gi]:gStart[gi+1]] ascending. arena: rebuilt per call.
	gids     []int
	gStart   []int
	gMembers []int
	gLat     []int
	gReads   []int
	gWrites  []int
	gSet     []graph.NodeSet // arena: per-group member sets for convexity/interlock
	// nodeGroup maps node -> group index (position in gids) or -1. arena.
	nodeGroup []int

	// Macro contraction. arena: macroNodes backs every macro's node list.
	macros     []macro
	macroOf    []int
	macroNodes []int
	succs      [][]int
	preds      [][]int

	// Scheduling state. arena: reused across calls.
	sp       []int
	indeg    []int
	earliest []int
	issue    []int
	ready    []int
	cands    []int
	order    []int
	down     []int
	up       []int
	table    *Table

	// Metric scratch. arena: depth is the longest-path sweep buffer;
	// prodMark/regMark are epoch-stamped dedup marks for IN(S).
	depth    []float64
	prodMark []uint32
	regMark  []uint32
	markEra  uint32

	// sw backs AllSoftware's assignments. arena: valid until the next
	// AllSoftware call.
	sw Assignment

	// out is the arena-owned result; its slices and critical set are reused.
	// arena: aliased by the returned *Schedule until the next call.
	out Schedule

	// tr records an observation-only span per Schedule call on track tid;
	// nil (free) unless the owner called SetTrace. Never read back into
	// scheduling decisions.
	tr  *obs.Tracer
	tid int
}

// SetTrace attaches a tracer to the kernel: every subsequent Schedule call
// records one "sched" span on track tid. A nil tracer detaches (the default;
// disabled spans cost nothing — see obs.Tracer).
func (s *Scheduler) SetTrace(tr *obs.Tracer, tid int) {
	s.tr = tr
	s.tid = tid
}

// NewScheduler returns a kernel with an empty arena. The arena sizes itself
// to the first workloads it sees and stays allocation-free afterwards.
func NewScheduler() *Scheduler { return &Scheduler{} }

// AllSoftware is sched.AllSoftware(n) built in the kernel's own buffer,
// valid until the kernel's next AllSoftware call. Schedule never retains its
// assignment, so the buffer may be scheduled on this kernel or any other,
// and a caller may write hardware choices into it to build an assignment.
//
//alloc:amortized grows the buffer only when a larger block arrives; later calls reslice it
func (s *Scheduler) AllSoftware(n int) Assignment {
	s.sw = arena.Grow(s.sw, n)
	for i := range s.sw {
		s.sw[i] = NodeChoice{Kind: KindSW, Opt: 0, Group: -1}
	}
	//lint:ignore arenaescape returning the arena-owned buffer is AllSoftware's documented contract: valid until the next AllSoftware call
	return s.sw
}

// Clone returns a deep copy of the schedule whose buffers are independent of
// any scheduler arena.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		Length:    s.Length,
		NodeCycle: append([]int(nil), s.NodeCycle...),
		NodeDone:  append([]int(nil), s.NodeDone...),
		Critical:  s.Critical.Clone(),
	}
}

// Schedule list-schedules d under assignment a on machine cfg. It is
// equivalent to ListSchedule in results and errors; the returned Schedule
// aliases the receiver's arena and is valid until the next call.
//
//alloc:free
func (s *Scheduler) Schedule(d *dfg.DFG, a Assignment, cfg machine.Config) (*Schedule, error) {
	obsScheduleCalls.Inc()
	sp := s.tr.Begin("sched", s.tid)
	defer sp.End()

	if err := s.validateNodes(d, a); err != nil {
		return nil, err
	}
	s.buildGroups(d, a)
	if err := s.validateGroups(d, a); err != nil {
		return nil, err
	}
	s.measureGroups(d, a)
	if err := s.buildMacroArena(d, a, cfg); err != nil {
		return nil, err
	}
	s.macroEdgesArena(d)
	if s.topoMacrosArena() != len(s.macros) {
		return nil, fmt.Errorf("sched: ISE groups are mutually dependent (contracted graph is cyclic)")
	}
	if err := s.listSchedule(d, cfg); err != nil {
		return nil, err
	}
	s.criticalArena(d)
	//lint:ignore arenaescape returning the arena-owned Schedule is the kernel's documented contract: valid until the next call, Clone to retain
	return &s.out, nil
}

// validateNodes performs the per-node checks of Assignment.Validate, with
// identical messages and ordering.
func (s *Scheduler) validateNodes(d *dfg.DFG, a Assignment) error {
	if len(a) != d.Len() {
		return fmt.Errorf("sched: assignment covers %d nodes, DFG has %d", len(a), d.Len())
	}
	for i, c := range a {
		n := d.Nodes[i]
		switch c.Kind {
		case KindSW:
			if c.Opt < 0 || c.Opt >= len(n.SW) {
				return fmt.Errorf("sched: node %d sw option %d out of range", i, c.Opt)
			}
		case KindHW:
			if c.Opt < 0 || c.Opt >= len(n.HW) {
				return fmt.Errorf("sched: node %d hw option %d out of range", i, c.Opt)
			}
			if c.Group < 0 {
				return fmt.Errorf("sched: node %d is hardware without a group", i)
			}
		default:
			return fmt.Errorf("sched: node %d has unknown kind %d", i, c.Kind)
		}
	}
	return nil
}

// buildGroups extracts the ISE groups of a into the CSR arena, ascending by
// raw group ID exactly like Assignment.Groups, with members ascending.
func (s *Scheduler) buildGroups(d *dfg.DFG, a Assignment) {
	n := d.Len()
	s.gids = s.gids[:0]
	s.nodeGroup = arena.Grow(s.nodeGroup, n)
	hw := 0
	for i := 0; i < n; i++ {
		s.nodeGroup[i] = -1
		if a[i].Kind != KindHW {
			continue
		}
		hw++
		found := false
		for _, g := range s.gids {
			if g == a[i].Group {
				found = true
				break
			}
		}
		if !found {
			s.gids = append(s.gids, a[i].Group)
		}
	}
	// Insertion sort: the distinct-ID list is tiny and already nearly sorted.
	for i := 1; i < len(s.gids); i++ {
		for j := i; j > 0 && s.gids[j] < s.gids[j-1]; j-- {
			s.gids[j], s.gids[j-1] = s.gids[j-1], s.gids[j]
		}
	}
	ng := len(s.gids)
	s.gStart = arena.Grow(s.gStart, ng+1)
	s.gMembers = arena.Grow(s.gMembers, hw)
	s.gLat = arena.Grow(s.gLat, ng)
	s.gReads = arena.Grow(s.gReads, ng)
	s.gWrites = arena.Grow(s.gWrites, ng)
	for gi := range s.gStart {
		s.gStart[gi] = 0
	}
	for i := 0; i < n; i++ {
		if a[i].Kind != KindHW {
			continue
		}
		for gi, g := range s.gids {
			if g == a[i].Group {
				s.nodeGroup[i] = gi
				s.gStart[gi+1]++
				break
			}
		}
	}
	for gi := 0; gi < ng; gi++ {
		s.gStart[gi+1] += s.gStart[gi]
	}
	fill := s.cands // borrow an idle arena buffer as the per-group fill cursor
	fill = arena.Grow(fill, ng)
	copy(fill, s.gStart[:ng])
	for i := 0; i < n; i++ {
		if gi := s.nodeGroup[i]; gi >= 0 {
			s.gMembers[fill[gi]] = i
			fill[gi]++
		}
	}
	s.cands = fill[:0]
	// Per-group member sets, used by convexity and interlock checks.
	if cap(s.gSet) < ng {
		//lint:ignore allocfree cap-guarded arena growth preserving warmed member sets
		grown := make([]graph.NodeSet, ng)
		copy(grown, s.gSet)
		s.gSet = grown
	}
	s.gSet = s.gSet[:ng]
	for gi := 0; gi < ng; gi++ {
		s.gSet[gi].Reset(n)
		for _, v := range s.gMembers[s.gStart[gi]:s.gStart[gi+1]] {
			s.gSet[gi].Add(v)
		}
	}
}

// validateGroups performs the group-level checks of Assignment.Validate —
// eligibility and convexity per group, then pairwise mutual dependence — in
// the same order with the same messages.
func (s *Scheduler) validateGroups(d *dfg.DFG, a Assignment) error {
	ng := len(s.gids)
	for gi := 0; gi < ng; gi++ {
		for _, v := range s.gMembers[s.gStart[gi]:s.gStart[gi+1]] {
			if !d.Nodes[v].ISEEligible() {
				return fmt.Errorf("sched: group %d contains an ISE-ineligible node", s.gids[gi])
			}
		}
		if !d.IsConvex(s.gSet[gi]) {
			return fmt.Errorf("sched: group %d is not convex", s.gids[gi])
		}
	}
	for i := 0; i < ng; i++ {
		for j := i + 1; j < ng; j++ {
			if s.interlocked(d, i, j) {
				return fmt.Errorf("sched: groups %d and %d are mutually dependent", s.gids[i], s.gids[j])
			}
		}
	}
	return nil
}

// interlocked reports whether groups i and j each reach the other, matching
// dfg.Interlocked without materializing Values slices.
func (s *Scheduler) interlocked(d *dfg.DFG, i, j int) bool {
	return s.reaches(d, i, j) && s.reaches(d, j, i)
}

func (s *Scheduler) reaches(d *dfg.DFG, from, to int) bool {
	for _, v := range s.gMembers[s.gStart[from]:s.gStart[from+1]] {
		if d.ReachesFromNode(v, s.gSet[to]) {
			return true
		}
	}
	return false
}

// measureGroups fills gLat/gReads/gWrites for every group, reproducing
// GroupCycles, d.In and d.Out arithmetic exactly.
func (s *Scheduler) measureGroups(d *dfg.DFG, a Assignment) {
	n := d.Len()
	s.depth = arena.Grow(s.depth, n)
	s.prodMark = arena.Grow(s.prodMark, n)
	s.regMark = arena.Grow(s.regMark, 64)
	for gi := range s.gids {
		members := s.gMembers[s.gStart[gi]:s.gStart[gi+1]]
		s.gLat[gi] = CyclesForDelay(s.groupDelay(d, a, gi))
		s.gReads[gi] = s.groupIn(d, gi, members)
		s.gWrites[gi] = s.groupOut(d, gi, members)
	}
}

// groupDelay is GroupDelayNS with the depth arena in place of a per-call
// slice. Entries are written before they are read in
// topological order, so no reset is needed between groups.
func (s *Scheduler) groupDelay(d *dfg.DFG, a Assignment, gi int) float64 {
	best := 0.0
	for _, v := range d.Topo() {
		if s.nodeGroup[v] != gi {
			continue
		}
		in := 0.0
		for _, u := range d.G.Preds(v) {
			if s.nodeGroup[u] == gi && s.depth[u] > in {
				in = s.depth[u]
			}
		}
		s.depth[v] = in + d.Nodes[v].HW[a[v].Opt].DelayNS
		if s.depth[v] > best {
			best = s.depth[v]
		}
	}
	return best
}

// nextEra advances the epoch-stamp used by the IN(S) dedup marks, clearing
// them wholesale on the (effectively unreachable) wraparound.
func (s *Scheduler) nextEra() uint32 {
	s.markEra++
	if s.markEra == 0 {
		for i := range s.prodMark {
			s.prodMark[i] = 0
		}
		for i := range s.regMark {
			s.regMark[i] = 0
		}
		s.markEra = 1
	}
	return s.markEra
}

// groupIn counts IN(S) — distinct external value sources — matching d.In:
// internal producers are skipped, external producers dedup by producer ID,
// live-in registers dedup by register.
func (s *Scheduler) groupIn(d *dfg.DFG, gi int, members []int) int {
	era := s.nextEra()
	count := 0
	for _, v := range members {
		for _, src := range d.Nodes[v].Inputs {
			if src.Producer >= 0 {
				if s.nodeGroup[src.Producer] == gi {
					continue
				}
				if s.prodMark[src.Producer] != era {
					s.prodMark[src.Producer] = era
					count++
				}
				continue
			}
			r := int(src.Reg)
			if r >= len(s.regMark) {
				//lint:ignore allocfree len-guarded arena growth preserving era marks; register ids are bounded by the ISA
				grown := make([]uint32, r+1)
				copy(grown, s.regMark)
				s.regMark = grown
			}
			if s.regMark[r] != era {
				s.regMark[r] = era
				count++
			}
		}
	}
	return count
}

// groupOut counts OUT(S) — members whose value escapes the group — matching
// d.Out.
func (s *Scheduler) groupOut(d *dfg.DFG, gi int, members []int) int {
	out := 0
	for _, v := range members {
		n := d.Nodes[v]
		escapes := n.LiveOut
		if !escapes {
			for _, succ := range n.DataSuccs {
				if s.nodeGroup[succ] != gi {
					escapes = true
					break
				}
			}
		}
		if escapes {
			out++
		}
	}
	return out
}

// buildMacroArena is buildMacros over the arena: ISE groups first in
// canonical order, then software nodes ascending, with identical port-check
// errors.
func (s *Scheduler) buildMacroArena(d *dfg.DFG, a Assignment, cfg machine.Config) error {
	n := d.Len()
	ng := len(s.gids)
	s.macroOf = arena.Grow(s.macroOf, n)
	for i := range s.macroOf {
		s.macroOf[i] = -1
	}
	// macroNodes is pre-grown to n so the per-macro subslices taken below
	// never move under a later append.
	s.macroNodes = arena.Grow(s.macroNodes, n)[:0]
	// Every group has at least one member, so there are at most n macros.
	s.macros = arena.Grow(s.macros, n)[:0]
	for gi := 0; gi < ng; gi++ {
		members := s.gMembers[s.gStart[gi]:s.gStart[gi+1]]
		start := len(s.macroNodes)
		s.macroNodes = append(s.macroNodes, members...)
		m := macro{
			id:      len(s.macros),
			nodes:   s.macroNodes[start:len(s.macroNodes):len(s.macroNodes)],
			lat:     s.gLat[gi],
			reads:   s.gReads[gi],
			writes:  s.gWrites[gi],
			isISE:   true,
			minNode: members[0],
		}
		if m.reads > cfg.ReadPorts || m.writes > cfg.WritePorts {
			return fmt.Errorf("sched: ISE group %d needs %d/%d ports, machine has %d/%d",
				s.gids[gi], m.reads, m.writes, cfg.ReadPorts, cfg.WritePorts)
		}
		for _, v := range m.nodes {
			s.macroOf[v] = m.id
		}
		s.macros = append(s.macros, m)
	}
	for i := 0; i < n; i++ {
		if s.macroOf[i] >= 0 {
			continue
		}
		node := d.Nodes[i]
		start := len(s.macroNodes)
		s.macroNodes = append(s.macroNodes, i)
		m := macro{
			id:      len(s.macros),
			nodes:   s.macroNodes[start:len(s.macroNodes):len(s.macroNodes)],
			lat:     node.SW[a[i].Opt].Cycles,
			reads:   swReads(d, i),
			writes:  swWrites(d, i),
			class:   int(node.SW[a[i].Opt].Class),
			minNode: i,
		}
		if m.reads > cfg.ReadPorts || m.writes > cfg.WritePorts {
			return fmt.Errorf("sched: node %d needs %d/%d ports, machine has %d/%d",
				i, m.reads, m.writes, cfg.ReadPorts, cfg.WritePorts)
		}
		s.macroOf[i] = m.id
		s.macros = append(s.macros, m)
	}
	return nil
}

// macroEdgesArena lifts DFG edges onto macros with deduplication, preserving
// macroEdges' append order (scan nodes ascending, successors in edge order;
// the linear containment scan replaces the map without changing which edge
// instance is kept).
func (s *Scheduler) macroEdgesArena(d *dfg.DFG) {
	nm := len(s.macros)
	if cap(s.succs) < nm {
		//lint:ignore allocfree cap-guarded arena growth preserving warmed edge slots
		grown := make([][]int, nm)
		copy(grown, s.succs)
		s.succs = grown
		//lint:ignore allocfree cap-guarded arena growth preserving warmed edge slots
		grownP := make([][]int, nm)
		copy(grownP, s.preds)
		s.preds = grownP
	}
	s.succs = s.succs[:nm]
	s.preds = s.preds[:nm]
	for m := 0; m < nm; m++ {
		s.succs[m] = s.succs[m][:0]
		s.preds[m] = s.preds[m][:0]
	}
	for u := 0; u < d.G.Len(); u++ {
		for _, v := range d.G.Succs(u) {
			mu, mv := s.macroOf[u], s.macroOf[v]
			if mu == mv {
				continue
			}
			dup := false
			for _, w := range s.succs[mu] {
				if w == mv {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			s.succs[mu] = append(s.succs[mu], mv)
			s.preds[mv] = append(s.preds[mv], mu)
		}
	}
}

// topoMacrosArena is topoMacros over the arena; s.order holds the result.
func (s *Scheduler) topoMacrosArena() int {
	nm := len(s.macros)
	s.indeg = arena.Grow(s.indeg, nm)
	s.order = arena.Grow(s.order, nm)[:0]
	s.ready = arena.Grow(s.ready, nm)[:0]
	for m := 0; m < nm; m++ {
		s.indeg[m] = len(s.preds[m])
	}
	for m := 0; m < nm; m++ {
		if s.indeg[m] == 0 {
			s.ready = append(s.ready, m)
		}
	}
	head := 0
	for head < len(s.ready) {
		m := s.ready[head]
		head++
		s.order = append(s.order, m)
		for _, t := range s.succs[m] {
			s.indeg[t]--
			if s.indeg[t] == 0 {
				s.ready = append(s.ready, t)
			}
		}
	}
	return len(s.order)
}

// listSchedule is the core scheduling loop of ListSchedule over the arena.
func (s *Scheduler) listSchedule(d *dfg.DFG, cfg machine.Config) error {
	nm := len(s.macros)
	s.sp = arena.Grow(s.sp, nm)
	s.earliest = arena.Grow(s.earliest, nm)
	s.issue = arena.Grow(s.issue, nm)
	s.indeg = arena.Grow(s.indeg, nm)
	for m := 0; m < nm; m++ {
		s.sp[m] = len(s.succs[m])
		s.indeg[m] = len(s.preds[m])
		s.earliest[m] = 1
	}
	if s.table == nil {
		s.table = NewTable(cfg)
	} else {
		s.table.Reuse(cfg)
	}
	scheduled := 0
	cycle := 1
	limit := 2*totalLatency(s.macros) + 2*nm + 16
	s.ready = s.ready[:0]
	for m := 0; m < nm; m++ {
		if s.indeg[m] == 0 {
			s.ready = append(s.ready, m)
		}
	}
	for scheduled < nm {
		if cycle > limit {
			return fmt.Errorf("sched: no progress by cycle %d (%d/%d macros)", cycle, scheduled, nm)
		}
		s.cands = s.cands[:0]
		for _, m := range s.ready {
			if s.earliest[m] <= cycle {
				s.cands = append(s.cands, m)
			}
		}
		// Insertion sort under the same (priority desc, minNode asc) order
		// sort.Slice applied; minNode is unique per macro, so the comparator
		// is total and any correct sort yields the identical permutation.
		for i := 1; i < len(s.cands); i++ {
			for j := i; j > 0 && s.candLess(s.cands[j], s.cands[j-1]); j-- {
				s.cands[j], s.cands[j-1] = s.cands[j-1], s.cands[j]
			}
		}
		for _, m := range s.cands {
			mc := &s.macros[m]
			if mc.isISE {
				if !s.table.FitsNewISE(cycle, mc.lat, mc.reads, mc.writes) {
					continue
				}
				s.table.ReserveNewISE(cycle, mc.lat, mc.reads, mc.writes)
			} else {
				if !s.table.FitsSW(cycle, isa.Class(mc.class), mc.reads, mc.writes) {
					continue
				}
				s.table.ReserveSW(cycle, isa.Class(mc.class), mc.reads, mc.writes)
			}
			s.issue[m] = cycle
			scheduled++
			s.ready = removeInt(s.ready, m)
			for _, t := range s.succs[m] {
				if done := cycle + mc.lat; done > s.earliest[t] {
					s.earliest[t] = done
				}
				s.indeg[t]--
				if s.indeg[t] == 0 {
					s.ready = append(s.ready, t)
				}
			}
		}
		cycle++
	}

	n := d.Len()
	s.out.Length = 0
	s.out.NodeCycle = arena.Grow(s.out.NodeCycle, n)
	s.out.NodeDone = arena.Grow(s.out.NodeDone, n)
	for m := range s.macros {
		mc := &s.macros[m]
		for _, v := range mc.nodes {
			s.out.NodeCycle[v] = s.issue[m]
			s.out.NodeDone[v] = s.issue[m] + mc.lat - 1
			if s.out.NodeDone[v] > s.out.Length {
				s.out.Length = s.out.NodeDone[v]
			}
		}
	}
	return nil
}

func (s *Scheduler) candLess(a, b int) bool {
	if s.sp[a] != s.sp[b] {
		return s.sp[a] > s.sp[b]
	}
	return s.macros[a].minNode < s.macros[b].minNode
}

// criticalArena is criticalNodes over the arena, reusing the macro
// topological order computed by topoMacrosArena (the contracted graph is
// unchanged, and topoMacros is deterministic, so the orders coincide).
func (s *Scheduler) criticalArena(d *dfg.DFG) {
	nm := len(s.macros)
	s.down = arena.Grow(s.down, nm)
	s.up = arena.Grow(s.up, nm)
	best := 0
	for _, m := range s.order {
		in := 0
		for _, p := range s.preds[m] {
			if s.down[p] > in {
				in = s.down[p]
			}
		}
		s.down[m] = in + s.macros[m].lat
		if s.down[m] > best {
			best = s.down[m]
		}
	}
	for i := nm - 1; i >= 0; i-- {
		m := s.order[i]
		out := 0
		for _, t := range s.succs[m] {
			if s.up[t] > out {
				out = s.up[t]
			}
		}
		s.up[m] = out + s.macros[m].lat
	}
	s.out.Critical.Reset(d.Len())
	for m := 0; m < nm; m++ {
		if s.down[m]+s.up[m]-s.macros[m].lat == best {
			for _, v := range s.macros[m].nodes {
				s.out.Critical.Add(v)
			}
		}
	}
}
