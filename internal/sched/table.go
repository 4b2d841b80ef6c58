package sched

import (
	"repro/internal/isa"
	"repro/internal/machine"
)

// Table is the per-cycle resource ledger: issue slots, register-file ports,
// functional units and ASFU occupancy. Cycles are 1-based, matching the
// paper's C1, C2, ... notation. The incremental Operation-Scheduling of the
// exploration algorithm reserves resources through it one operation at a
// time.
type Table struct {
	cfg machine.Config
	use []cycleUse // index 0 unused
}

type cycleUse struct {
	issue  int
	reads  int
	writes int
	asfu   int
	fu     [isa.NumClasses]int
}

// NewTable returns an empty ledger for the given machine.
//
//alloc:amortized constructor; the explorer builds one table per worker and reuses it across iterations via Reuse
func NewTable(cfg machine.Config) *Table {
	return &Table{cfg: cfg, use: make([]cycleUse, 1, 64)}
}

// Config returns the machine configuration the table enforces.
func (t *Table) Config() machine.Config { return t.cfg }

// Reset clears all reservations.
func (t *Table) Reset() { t.use = t.use[:1] }

// Reuse re-targets the ledger to cfg and clears all reservations while
// keeping the backing array, so a long-lived table reaches zero steady-state
// allocations. (at() appends explicit zero values, so stale capacity beyond
// the truncation point is never observed.)
func (t *Table) Reuse(cfg machine.Config) {
	t.cfg = cfg
	t.use = t.use[:1]
}

// MaxCycle returns the highest cycle with any reservation (0 when empty).
func (t *Table) MaxCycle() int {
	for c := len(t.use) - 1; c >= 1; c-- {
		u := t.use[c]
		if u.issue != 0 || u.asfu != 0 || u.reads != 0 || u.writes != 0 {
			return c
		}
	}
	return 0
}

func (t *Table) at(c int) *cycleUse {
	for len(t.use) <= c {
		t.use = append(t.use, cycleUse{})
	}
	return &t.use[c]
}

// noUse is the usage of every cycle past the ledger's end. Read-only: peek
// hands it out, and at never does.
var noUse cycleUse

// peek returns the usage at cycle c without growing the table or copying the
// entry. The result must not be written through.
func (t *Table) peek(c int) *cycleUse {
	if c < len(t.use) {
		return &t.use[c]
	}
	return &noUse
}

// FitsSW reports whether a software instruction of the given class and port
// demand can issue at cycle c.
func (t *Table) FitsSW(c int, class isa.Class, reads, writes int) bool {
	u := t.peek(c)
	return u.issue < t.cfg.IssueWidth &&
		u.fu[class] < t.cfg.FUs[class] &&
		u.reads+reads <= t.cfg.ReadPorts &&
		u.writes+writes <= t.cfg.WritePorts
}

// ReserveSW books the resources for a software instruction at cycle c.
func (t *Table) ReserveSW(c int, class isa.Class, reads, writes int) {
	u := t.at(c)
	u.issue++
	u.fu[class]++
	u.reads += reads
	u.writes += writes
}

// FitsNewISE reports whether a fresh ISE instruction with the given latency
// and port demand can issue at cycle c: one issue slot and the register
// ports at c, plus a free ASFU for cycles c..c+lat-1.
func (t *Table) FitsNewISE(c, lat, reads, writes int) bool {
	u := t.peek(c)
	if u.issue >= t.cfg.IssueWidth ||
		u.reads+reads > t.cfg.ReadPorts ||
		u.writes+writes > t.cfg.WritePorts {
		return false
	}
	for k := 0; k < lat; k++ {
		if t.peek(c+k).asfu >= t.cfg.ASFUs {
			return false
		}
	}
	return true
}

// ReserveNewISE books a fresh ISE instruction at cycle c.
func (t *Table) ReserveNewISE(c, lat, reads, writes int) {
	u := t.at(c)
	u.issue++
	u.reads += reads
	u.writes += writes
	for k := 0; k < lat; k++ {
		t.at(c+k).asfu++
	}
}

// FitsISEUpdate reports whether an ISE already issued at cycle c can change
// shape — latency oldLat→newLat and port demand oldReads/oldWrites→
// newReads/newWrites — without violating any constraint. Used when packing
// an additional operation into an existing ISE.
func (t *Table) FitsISEUpdate(c, oldLat, newLat, oldReads, newReads, oldWrites, newWrites int) bool {
	u := t.peek(c)
	if u.reads-oldReads+newReads > t.cfg.ReadPorts ||
		u.writes-oldWrites+newWrites > t.cfg.WritePorts {
		return false
	}
	for k := oldLat; k < newLat; k++ {
		if t.peek(c+k).asfu >= t.cfg.ASFUs {
			return false
		}
	}
	return true
}

// UpdateISE applies the shape change checked by FitsISEUpdate.
func (t *Table) UpdateISE(c, oldLat, newLat, oldReads, newReads, oldWrites, newWrites int) {
	u := t.at(c)
	u.reads += newReads - oldReads
	u.writes += newWrites - oldWrites
	if newLat > oldLat {
		for k := oldLat; k < newLat; k++ {
			t.at(c+k).asfu++
		}
	} else {
		for k := newLat; k < oldLat; k++ {
			t.at(c+k).asfu--
		}
	}
}
