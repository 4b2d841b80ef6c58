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
// Across consecutive calls the kernel also reuses the contraction prologue
// incrementally: when the same DFG and machine are scheduled under an
// assignment whose leading ISE groups are identical to the previous
// (successful) call's — the exploration's accepted-prefix-plus-one-candidate
// pattern — the prefix groups' eligibility, convexity and mutual-dependence
// checks and their latency/port metrics are reused instead of recomputed.
// Only the candidate group is validated and measured from scratch. Reuse is
// keyed on group membership and option choices, never on group numbering, and
// is dropped entirely after an error, so a failed call can never poison the
// next one.
//
// The same baseline drives delta-scheduling (see delta.go): the cycle loop
// resumes at the first cycle the previous successful schedule can differ at,
// replaying the unaffected prefix of that schedule verbatim instead of
// re-deriving it. Both reuses are pure optimizations — results and errors
// are byte-identical to a from-scratch run, pinned differentially against
// listScheduleReference.
type Scheduler struct {
	// Prologue-reuse identity: the (DFG, machine) of the last successful
	// call, plus its group table snapshot. lastOK gates every reuse.
	lastDFG *dfg.DFG
	lastCfg machine.Config
	lastOK  bool

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

	// Previous successful call's group table, for prefix reuse. arena.
	prevStart   []int
	prevMembers []int
	prevOpt     []int
	prevLat     []int
	prevReads   []int
	prevWrites  []int

	// Previous successful call's macro table, issue cycles and contracted
	// edges — the delta-scheduling baseline (see deltaFrom). CSR layouts over
	// that call's macro IDs; prevMacAtMin maps minNode -> previous macro.
	// arena: rebuilt by snapshotMacros after every successful schedule.
	prevMacStart     []int
	prevMacNodes     []int
	prevMacLat       []int
	prevMacReads     []int
	prevMacWrites    []int
	prevMacClass     []int
	prevMacISE       []bool
	prevMacIssue     []int
	prevMacSuccStart []int
	prevMacSuccs     []int
	prevMacAtMin     []int

	// Delta-repair scratch: old<->new macro matching, the affected flags and
	// the dependence-only issue lower bound. arena: rebuilt per call.
	matchOld []int
	newOfOld []int
	affected []bool
	asap     []int

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
	reuse := s.lastOK && s.lastDFG == d && s.lastCfg == cfg
	s.lastOK = false
	s.lastDFG = d
	s.lastCfg = cfg

	if err := s.validateNodes(d, a); err != nil {
		return nil, err
	}
	s.buildGroups(d, a)
	prefix := 0
	if reuse {
		prefix = s.matchedPrefix(a)
	}
	if err := s.validateGroups(d, a, prefix); err != nil {
		return nil, err
	}
	s.measureGroups(d, a, prefix)
	if err := s.buildMacroArena(d, a, cfg); err != nil {
		return nil, err
	}
	s.macroEdgesArena(d)
	if s.topoMacrosArena() != len(s.macros) {
		return nil, fmt.Errorf("sched: ISE groups are mutually dependent (contracted graph is cyclic)")
	}
	if err := s.listSchedule(d, cfg, s.deltaFrom(reuse)); err != nil {
		return nil, err
	}
	s.criticalArena(d)
	s.snapshotGroups(a)
	s.snapshotMacros(d)
	s.lastOK = true
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

// matchedPrefix returns how many leading groups of the current call are
// structurally identical — same members, same hardware options — to the
// previous successful call's groups, making their validation and metrics
// reusable. Group numbering is irrelevant: both tables are in canonical
// (ascending raw ID) order and compared by content.
func (s *Scheduler) matchedPrefix(a Assignment) int {
	ng := len(s.gids)
	prev := len(s.prevStart) - 1
	k := 0
	for k < ng && k < prev {
		lo, hi := s.gStart[k], s.gStart[k+1]
		plo, phi := s.prevStart[k], s.prevStart[k+1]
		if hi-lo != phi-plo {
			break
		}
		same := true
		for i := 0; i < hi-lo; i++ {
			v := s.gMembers[lo+i]
			if v != s.prevMembers[plo+i] || a[v].Opt != s.prevOpt[plo+i] {
				same = false
				break
			}
		}
		if !same {
			break
		}
		s.gLat[k] = s.prevLat[k]
		s.gReads[k] = s.prevReads[k]
		s.gWrites[k] = s.prevWrites[k]
		k++
	}
	return k
}

// snapshotGroups records the current group table for the next call's prefix
// matching. Called only after a fully successful schedule.
func (s *Scheduler) snapshotGroups(a Assignment) {
	ng := len(s.gids)
	s.prevStart = arena.Grow(s.prevStart, ng+1)
	copy(s.prevStart, s.gStart[:ng+1])
	nm := s.gStart[ng]
	s.prevMembers = arena.Grow(s.prevMembers, nm)
	copy(s.prevMembers, s.gMembers[:nm])
	s.prevOpt = arena.Grow(s.prevOpt, nm)
	for i, v := range s.gMembers[:nm] {
		s.prevOpt[i] = a[v].Opt
	}
	s.prevLat = arena.Grow(s.prevLat, ng)
	copy(s.prevLat, s.gLat[:ng])
	s.prevReads = arena.Grow(s.prevReads, ng)
	copy(s.prevReads, s.gReads[:ng])
	s.prevWrites = arena.Grow(s.prevWrites, ng)
	copy(s.prevWrites, s.gWrites[:ng])
}

// validateGroups performs the group-level checks of Assignment.Validate —
// eligibility and convexity per group, then pairwise mutual dependence — in
// the same order with the same messages. Groups below prefix passed these
// checks verbatim on the previous call and are skipped; pairs are skipped
// only when both sides are prefix groups.
func (s *Scheduler) validateGroups(d *dfg.DFG, a Assignment, prefix int) error {
	ng := len(s.gids)
	for gi := prefix; gi < ng; gi++ {
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
			if i < prefix && j < prefix {
				continue
			}
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

// measureGroups fills gLat/gReads/gWrites for every group at or beyond
// prefix, reproducing GroupCycles, d.In and d.Out arithmetic exactly.
func (s *Scheduler) measureGroups(d *dfg.DFG, a Assignment, prefix int) {
	n := d.Len()
	ng := len(s.gids)
	if prefix >= ng {
		return
	}
	s.depth = arena.Grow(s.depth, n)
	s.prodMark = arena.Grow(s.prodMark, n)
	s.regMark = arena.Grow(s.regMark, 64)
	for gi := prefix; gi < ng; gi++ {
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
	if cap(s.macros) < ng+n {
		//lint:ignore allocfree cap-guarded arena growth; reused once warmed to the DFG size
		s.macros = make([]macro, 0, ng+n)
	}
	s.macros = s.macros[:0]
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
// from is the delta-scheduling resume cycle computed by deltaFrom: 1 runs the
// loop from scratch; from > 1 first replays the previous successful call's
// matched macros issued before that cycle (deltaFrom guarantees the
// from-scratch run would issue exactly those macros at exactly those cycles)
// and re-enters the cycle loop at from.
func (s *Scheduler) listSchedule(d *dfg.DFG, cfg machine.Config, from int) error {
	nm := len(s.macros)
	s.sp = arena.Grow(s.sp, nm)
	s.earliest = arena.Grow(s.earliest, nm)
	s.issue = arena.Grow(s.issue, nm)
	s.indeg = arena.Grow(s.indeg, nm)
	for m := 0; m < nm; m++ {
		s.sp[m] = len(s.succs[m])
		s.indeg[m] = len(s.preds[m])
		s.earliest[m] = 1
		s.issue[m] = 0
	}
	if s.table == nil {
		s.table = NewTable(cfg)
	} else {
		s.table.Reuse(cfg)
	}
	scheduled := 0
	cycle := 1
	limit := 2*totalLatency(s.macros) + 2*nm + 16
	if from > limit+1 {
		// The repair point lies beyond the deadlock guard: replay stops at
		// the guard so the resumed loop reproduces the from-scratch error
		// (cycle and progress counts included) instead of skipping it.
		from = limit + 1
	}
	if from > 1 {
		// Replay the unaffected prefix of the previous schedule: matched
		// macros issued before the repair point keep their cycles and
		// reservations verbatim. Reservations are commutative, so reserving
		// them macro-by-macro reproduces the table state the from-scratch
		// loop would have reached entering cycle `from`.
		for m := 0; m < nm; m++ {
			o := s.matchOld[m]
			if o < 0 || s.prevMacIssue[o] >= from {
				continue
			}
			mc := &s.macros[m]
			c := s.prevMacIssue[o]
			if mc.isISE {
				s.table.ReserveNewISE(c, mc.lat, mc.reads, mc.writes)
			} else {
				s.table.ReserveSW(c, isa.Class(mc.class), mc.reads, mc.writes)
			}
			s.issue[m] = c
			scheduled++
		}
		// Rebuild the loop state the from-scratch run maintains
		// incrementally: for unissued macros, indeg counts unissued
		// predecessors and earliest is the max completion of issued ones.
		for m := 0; m < nm; m++ {
			if s.issue[m] > 0 {
				continue
			}
			cnt, earl := 0, 1
			for _, p := range s.preds[m] {
				if s.issue[p] > 0 {
					if v := s.issue[p] + s.macros[p].lat; v > earl {
						earl = v
					}
				} else {
					cnt++
				}
			}
			s.indeg[m] = cnt
			s.earliest[m] = earl
		}
		cycle = from
	}
	s.ready = s.ready[:0]
	for m := 0; m < nm; m++ {
		if s.issue[m] == 0 && s.indeg[m] == 0 {
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
