package sched

import (
	"repro/internal/arena"
	"repro/internal/dfg"
)

// Delta-scheduling extends the kernel's contraction-prologue reuse into the
// scheduling loop itself. The exploration evaluates long runs of assignments
// that differ in exactly one group (the accepted-ISE prefix plus one
// candidate), so most of every schedule is identical to the previous call's.
// Instead of re-running the cycle loop from cycle 1, the kernel matches the
// new call's macros against the previous successful call's, derives the
// first cycle any decision can differ at (the repair point), replays the
// previous schedule verbatim below it and resumes the loop there.
//
// Correctness invariant (the "first-affected-cycle" argument, DESIGN.md §13):
// a macro is *affected* when it is unmatched on either side or adjacent (in
// either call's contracted graph) to an unmatched macro. The repair point c0
// is the minimum over affected macros of (a) the dependence-only issue lower
// bound asap in the new graph and (b) the previous issue cycle on the old
// side. Below c0 the two runs are decision-identical:
//
//   - An affected new macro cannot enter the candidate list before c0: its
//     earliest-issue bound is at least its asap, which is >= c0.
//   - An affected or unmatched old macro issued at >= c0 by construction, so
//     it influenced no reservation below c0 (a candidate that fails its fit
//     check reserves nothing and is decision-neutral for every other macro).
//   - Every unaffected macro has exclusively matched neighbors with
//     identical metrics and edges, so by induction over cycles < c0 both
//     runs see the same ready candidates with the same priorities — the
//     candidate order is a total order on (priority desc, minNode asc),
//     making the ready list's internal order irrelevant — and the same
//     resource table, hence make the same reservations.
//
// Replaying the matched macros with previous issue < c0 therefore reproduces
// exactly the from-scratch loop's state entering cycle c0, including the
// "no progress" error path: when c0 exceeds the deadlock guard, replay is
// clamped to it and the resumed loop fails with the identical error.
// Differential fuzzing against listScheduleReference pins all of this
// (TestSchedulerDeltaMatchesReference).

// deltaFrom returns the repair cycle for the current call: the first cycle
// at which its schedule may differ from the previous successful call's, or 1
// when no baseline is reusable (different DFG or machine, or the last call
// failed). Requires buildMacroArena/macroEdgesArena/topoMacrosArena to have
// run (it consumes s.macros, s.succs/s.preds and s.order).
func (s *Scheduler) deltaFrom(reuse bool) int {
	nm := len(s.macros)
	if !reuse || len(s.prevMacStart) == 0 {
		return 1
	}
	prevNM := len(s.prevMacStart) - 1

	// Match macros across the calls by minNode: equal node sets and equal
	// scheduling metrics make a macro interchangeable between the runs.
	// minNode is unique within each call (macros partition the nodes), so
	// the matching is injective both ways.
	s.matchOld = arena.Grow(s.matchOld, nm)
	s.newOfOld = arena.Grow(s.newOfOld, prevNM)
	for o := 0; o < prevNM; o++ {
		s.newOfOld[o] = -1
	}
	for m := 0; m < nm; m++ {
		s.matchOld[m] = -1
		mc := &s.macros[m]
		o := s.prevMacAtMin[mc.minNode]
		if o < 0 {
			continue
		}
		lo, hi := s.prevMacStart[o], s.prevMacStart[o+1]
		if hi-lo != len(mc.nodes) ||
			s.prevMacLat[o] != mc.lat || s.prevMacReads[o] != mc.reads ||
			s.prevMacWrites[o] != mc.writes || s.prevMacClass[o] != mc.class ||
			s.prevMacISE[o] != mc.isISE {
			continue
		}
		same := true
		for i, v := range mc.nodes {
			if s.prevMacNodes[lo+i] != v {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		s.matchOld[m] = o
		s.newOfOld[o] = m
	}

	// Affected: unmatched macros and, in both contracted graphs, their
	// neighbors. The new-graph pass catches edges that appeared; the
	// old-graph pass catches edges that disappeared with a removed macro.
	s.affected = arena.Grow(s.affected, nm)
	aff := s.affected
	for m := 0; m < nm; m++ {
		aff[m] = s.matchOld[m] < 0
	}
	for m := 0; m < nm; m++ {
		if s.matchOld[m] >= 0 {
			continue
		}
		for _, t := range s.succs[m] {
			aff[t] = true
		}
		for _, t := range s.preds[m] {
			aff[t] = true
		}
	}
	for p := 0; p < prevNM; p++ {
		pm := s.newOfOld[p]
		for _, t := range s.prevMacSuccs[s.prevMacSuccStart[p]:s.prevMacSuccStart[p+1]] {
			tm := s.newOfOld[t]
			if pm < 0 && tm >= 0 {
				aff[tm] = true
			}
			if tm < 0 && pm >= 0 {
				aff[pm] = true
			}
		}
	}

	// asap: dependence-only issue lower bound over the new contracted graph,
	// swept in the topological order listSchedule's earliest values respect.
	s.asap = arena.Grow(s.asap, nm)
	for _, m := range s.order {
		lb := 1
		for _, p := range s.preds[m] {
			if v := s.asap[p] + s.macros[p].lat; v > lb {
				lb = v
			}
		}
		s.asap[m] = lb
	}

	const unbounded = int(^uint(0) >> 1)
	c0 := unbounded
	for m := 0; m < nm; m++ {
		if aff[m] && s.asap[m] < c0 {
			c0 = s.asap[m]
		}
	}
	for o := 0; o < prevNM; o++ {
		m := s.newOfOld[o]
		if (m < 0 || aff[m]) && s.prevMacIssue[o] < c0 {
			c0 = s.prevMacIssue[o]
		}
	}
	// No affected macro at all: the contracted graphs are identical and the
	// whole previous schedule replays (c0 stays beyond every issue cycle; the
	// resumed loop has nothing left to do).
	return c0
}

// snapshotMacros records the current call's macro table, contracted edges
// and issue cycles as the next call's delta-scheduling baseline. Called only
// after a fully successful schedule, alongside snapshotGroups.
func (s *Scheduler) snapshotMacros(d *dfg.DFG) {
	nm := len(s.macros)
	n := d.Len()
	s.prevMacStart = arena.Grow(s.prevMacStart, nm+1)
	s.prevMacNodes = arena.Grow(s.prevMacNodes, n)
	s.prevMacLat = arena.Grow(s.prevMacLat, nm)
	s.prevMacReads = arena.Grow(s.prevMacReads, nm)
	s.prevMacWrites = arena.Grow(s.prevMacWrites, nm)
	s.prevMacClass = arena.Grow(s.prevMacClass, nm)
	s.prevMacISE = arena.Grow(s.prevMacISE, nm)
	s.prevMacIssue = arena.Grow(s.prevMacIssue, nm)
	s.prevMacAtMin = arena.Grow(s.prevMacAtMin, n)
	for i := 0; i < n; i++ {
		s.prevMacAtMin[i] = -1
	}
	pos := 0
	for m := 0; m < nm; m++ {
		mc := &s.macros[m]
		s.prevMacStart[m] = pos
		copy(s.prevMacNodes[pos:], mc.nodes)
		pos += len(mc.nodes)
		s.prevMacLat[m] = mc.lat
		s.prevMacReads[m] = mc.reads
		s.prevMacWrites[m] = mc.writes
		s.prevMacClass[m] = mc.class
		s.prevMacISE[m] = mc.isISE
		s.prevMacIssue[m] = s.issue[m]
		s.prevMacAtMin[mc.minNode] = m
	}
	s.prevMacStart[nm] = pos

	total := 0
	for m := 0; m < nm; m++ {
		total += len(s.succs[m])
	}
	s.prevMacSuccStart = arena.Grow(s.prevMacSuccStart, nm+1)
	s.prevMacSuccs = arena.Grow(s.prevMacSuccs, total)
	pos = 0
	for m := 0; m < nm; m++ {
		s.prevMacSuccStart[m] = pos
		copy(s.prevMacSuccs[pos:], s.succs[m])
		pos += len(s.succs[m])
	}
	s.prevMacSuccStart[nm] = pos
}
