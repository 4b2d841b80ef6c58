package sched

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/randprog"
)

// assertSameAsReference schedules (d, a, cfg) through kern and through the
// pristine reference implementation and requires identical outcomes: the same
// error message, or byte-identical schedules and critical sets.
func assertSameAsReference(t *testing.T, kern *Scheduler, d *dfg.DFG, a Assignment, cfg machine.Config, tag string) {
	t.Helper()
	want, wantErr := ListScheduleReference(d, a, cfg)
	got, gotErr := kern.Schedule(d, a, cfg)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: reference=%v kernel=%v", tag, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch:\nreference: %v\nkernel:    %v", tag, wantErr, gotErr)
		}
		return
	}
	if got.Length != want.Length {
		t.Fatalf("%s: length %d, reference %d", tag, got.Length, want.Length)
	}
	for i := range want.NodeCycle {
		if got.NodeCycle[i] != want.NodeCycle[i] || got.NodeDone[i] != want.NodeDone[i] {
			t.Fatalf("%s: node %d cycle/done (%d,%d), reference (%d,%d)",
				tag, i, got.NodeCycle[i], got.NodeDone[i], want.NodeCycle[i], want.NodeDone[i])
		}
	}
	if !got.Critical.Equal(want.Critical) {
		t.Fatalf("%s: critical set %v, reference %v", tag, got.Critical, want.Critical)
	}
}

// dropLastGroup returns a copy of a with its highest-numbered ISE group
// demoted to software, or nil if a has no groups. Feeding the result before a
// itself mimics an exploration round: the accepted ISEs, then the same ISEs
// plus one more.
func dropLastGroup(a Assignment) Assignment {
	maxG := -1
	for _, c := range a {
		if c.Kind == KindHW && c.Group > maxG {
			maxG = c.Group
		}
	}
	if maxG < 0 {
		return nil
	}
	out := append(Assignment(nil), a...)
	for i, c := range out {
		if c.Kind == KindHW && c.Group == maxG {
			out[i] = NodeChoice{Kind: KindSW, Opt: 0, Group: -1}
		}
	}
	return out
}

// mutateOneGroup returns a copy of a that differs in exactly one ISE group —
// the exploration's evaluate pattern (the accepted ISEs plus one candidate).
// The mutation picks one of: demote a whole group to software, demote one
// member, grow a group by one software node, change one member's hardware
// option, or open a fresh small group. Results may be invalid (non-convex,
// interlocked, over-ported); the kernel must match the reference either way.
func mutateOneGroup(r *rand.Rand, d *dfg.DFG, a Assignment) Assignment {
	out := append(Assignment(nil), a...)
	var gids []int
	seen := map[int]bool{}
	for _, c := range out {
		if c.Kind == KindHW && !seen[c.Group] {
			seen[c.Group] = true
			gids = append(gids, c.Group)
		}
	}
	newGroup := func() {
		g := 0
		for seen[g] {
			g++
		}
		members := 0
		for i := range out {
			if out[i].Kind == KindSW && len(d.Nodes[i].HW) > 0 && r.Intn(3) == 0 {
				out[i] = NodeChoice{Kind: KindHW, Opt: r.Intn(len(d.Nodes[i].HW)), Group: g}
				if members++; members == 2 {
					return
				}
			}
		}
	}
	if len(gids) == 0 {
		newGroup()
		return out
	}
	g := gids[r.Intn(len(gids))]
	var members []int
	for i, c := range out {
		if c.Kind == KindHW && c.Group == g {
			members = append(members, i)
		}
	}
	switch r.Intn(5) {
	case 0: // demote the whole group
		for _, i := range members {
			out[i] = NodeChoice{Kind: KindSW, Opt: 0, Group: -1}
		}
	case 1: // demote one member
		i := members[r.Intn(len(members))]
		out[i] = NodeChoice{Kind: KindSW, Opt: 0, Group: -1}
	case 2: // grow the group by one software node
		for off, n := r.Intn(d.Len()), 0; n < d.Len(); n++ {
			i := (off + n) % d.Len()
			if out[i].Kind == KindSW && len(d.Nodes[i].HW) > 0 {
				out[i] = NodeChoice{Kind: KindHW, Opt: r.Intn(len(d.Nodes[i].HW)), Group: g}
				break
			}
		}
	case 3: // change one member's hardware option
		i := members[r.Intn(len(members))]
		out[i] = NodeChoice{Kind: KindHW, Opt: r.Intn(len(d.Nodes[i].HW)), Group: g}
	default:
		newGroup()
	}
	return out
}

// mutate returns a copy of a with one node's choice scrambled — valid or
// invalid, the kernel must match the reference either way.
func mutate(r *rand.Rand, a Assignment) Assignment {
	out := append(Assignment(nil), a...)
	i := r.Intn(len(out))
	out[i] = NodeChoice{
		Kind:  Kind(r.Intn(3)),
		Opt:   r.Intn(4) - 1,
		Group: r.Intn(4) - 2,
	}
	return out
}

// TestSchedulerMatchesReference is the differential test of the arena kernel:
// one long-lived Scheduler is driven through fuzzed DFGs, machines and
// assignment sequences — identical repeats, one-group extensions, random
// mutations and invalid assignments — and must agree with a from-scratch
// reference run at every step, including immediately after errors.
func TestSchedulerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	machines := machine.Configs()
	kern := NewScheduler()
	for trial := 0; trial < 150; trial++ {
		d := randprog.DFG(r, randprog.Config{
			Ops:      3 + r.Intn(45),
			MemFrac:  r.Float64() * 0.25,
			MultFrac: r.Float64() * 0.15,
		})
		cfg := machines[r.Intn(len(machines))]
		a := randomAssignment(r, d, cfg)

		assertSameAsReference(t, kern, d, AllSoftware(d.Len()), cfg, "allsw")
		if sub := dropLastGroup(a); sub != nil {
			// sub then a: the accepted ISEs, then one more.
			assertSameAsReference(t, kern, d, sub, cfg, "prefix-sub")
		}
		assertSameAsReference(t, kern, d, a, cfg, "full")
		assertSameAsReference(t, kern, d, a, cfg, "repeat")
		// Same assignment on a different machine: the kernel's warm table
		// and buffers must not carry the previous machine's limits.
		other := machines[r.Intn(len(machines))]
		assertSameAsReference(t, kern, d, a, other, "recfg")
		// Random mutations, often invalid; then the valid assignment again so
		// reuse-after-error is exercised on every trial.
		for k := 0; k < 4; k++ {
			assertSameAsReference(t, kern, d, mutate(r, a), cfg, "mutant")
		}
		assertSameAsReference(t, kern, d, a, cfg, "after-error")
	}
}

// TestSchedulerDeltaMatchesReference drives one long-lived kernel through
// chains of single-group deltas — each call's assignment differs from its
// predecessor in exactly one group, the exploration's evaluate pattern — and
// every call must agree with a from-scratch listScheduleReference run:
// identical schedules after repeats, identical error text on invalid mutants,
// and correct results immediately after an error.
func TestSchedulerDeltaMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	machines := machine.Configs()
	kern := NewScheduler()
	for trial := 0; trial < 120; trial++ {
		d := randprog.DFG(r, randprog.Config{
			Ops:      3 + r.Intn(45),
			MemFrac:  r.Float64() * 0.25,
			MultFrac: r.Float64() * 0.15,
		})
		cfg := machines[r.Intn(len(machines))]
		cur := randomAssignment(r, d, cfg)
		assertSameAsReference(t, kern, d, cur, cfg, "delta-base")
		// A chain of single-group mutations, each evaluated twice.
		for k := 0; k < 6; k++ {
			next := mutateOneGroup(r, d, cur)
			assertSameAsReference(t, kern, d, next, cfg, "delta-step")
			assertSameAsReference(t, kern, d, next, cfg, "delta-repeat")
			cur = next
		}
		// An often-invalid scramble, a single-group mutation of the last good
		// assignment right after it, and that assignment again.
		assertSameAsReference(t, kern, d, mutate(r, cur), cfg, "delta-scramble")
		assertSameAsReference(t, kern, d, mutateOneGroup(r, d, cur), cfg, "delta-after-error")
		assertSameAsReference(t, kern, d, cur, cfg, "delta-restore")
	}
}

// TestSchedulerMatchesReferenceOnBenchKernels runs the differential check on
// the hot blocks of every benchmark workload — the DFG shapes the exploration
// actually schedules.
func TestSchedulerMatchesReferenceOnBenchKernels(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	machines := machine.Configs()
	kern := NewScheduler()
	for _, bm := range bench.All() {
		prof, err := bm.Run()
		if err != nil {
			t.Fatalf("%s: %v", bm.FullName(), err)
		}
		hot := prof.HotBlocks(bm.Prog, 2)
		for _, d := range dfg.BuildAll(bm.Prog, hot, prof.BlockCounts) {
			cfg := machines[r.Intn(len(machines))]
			a := randomAssignment(r, d, cfg)
			assertSameAsReference(t, kern, d, AllSoftware(d.Len()), cfg, bm.FullName()+"/allsw")
			if sub := dropLastGroup(a); sub != nil {
				assertSameAsReference(t, kern, d, sub, cfg, bm.FullName()+"/prefix-sub")
			}
			assertSameAsReference(t, kern, d, a, cfg, bm.FullName()+"/full")
			assertSameAsReference(t, kern, d, mutate(r, a), cfg, bm.FullName()+"/mutant")
			assertSameAsReference(t, kern, d, a, cfg, bm.FullName()+"/after-mutant")
		}
	}
}

// TestSchedulerSteadyStateAllocs pins the zero-allocation contract: once the
// arena has seen a workload's shape, repeat schedules allocate nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := randprog.DFG(r, randprog.Config{Ops: 40, MemFrac: 0.2, MultFrac: 0.1})
	cfg := machine.New(2, 6, 3)
	assertSteadyStateAllocFree(t, d, cfg, []Assignment{
		AllSoftware(d.Len()),
		randomAssignment(r, d, cfg),
		randomAssignment(r, d, cfg),
	})
}

// TestSchedulerDeltaSteadyStateAllocs extends the zero-allocation pin to a
// cycle of single-group deltas: the all-software assignment, an assignment
// and the same one minus its last group.
func TestSchedulerDeltaSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := randprog.DFG(r, randprog.Config{Ops: 40, MemFrac: 0.2, MultFrac: 0.1})
	cfg := machine.New(2, 6, 3)
	base := randomAssignment(r, d, cfg)
	as := []Assignment{AllSoftware(d.Len()), base}
	if sub := dropLastGroup(base); sub != nil {
		as = append(as, sub)
	}
	assertSteadyStateAllocFree(t, d, cfg, as)
}

// assertSteadyStateAllocFree warms a fresh kernel on as, then cycles through
// as and fails if any call allocates.
func assertSteadyStateAllocFree(t *testing.T, d *dfg.DFG, cfg machine.Config, as []Assignment) {
	t.Helper()
	kern := NewScheduler()
	for _, a := range as {
		if _, err := kern.Schedule(d, a, cfg); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		a := as[i%len(as)]
		i++
		if _, err := kern.Schedule(d, a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule allocates %v/op, want 0", allocs)
	}
}

// TestSchedulerKeepsMacroArray pins the macro arena's sizing: a kernel warmed
// on an assignment with k ISE groups keeps the backing array of its macro
// table when the next call schedules k+1 groups.
func TestSchedulerKeepsMacroArray(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	cfg := machine.New(2, 6, 3)
	tried := 0
	for seed := 0; seed < 50; seed++ {
		d := randprog.DFG(r, randprog.Config{Ops: 30, MemFrac: 0.1, MultFrac: 0.1})
		a := randomAssignment(r, d, cfg)
		sub := dropLastGroup(a)
		if sub == nil {
			continue
		}
		kern := NewScheduler()
		if _, err := kern.Schedule(d, sub, cfg); err != nil {
			t.Fatal(err)
		}
		before := unsafe.SliceData(kern.macros)
		if _, err := kern.Schedule(d, a, cfg); err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(kern.macros) != before {
			t.Fatalf("seed %d: macro table reallocated going from %d to %d groups",
				seed, len(kern.gids)-1, len(kern.gids))
		}
		tried++
	}
	if tried == 0 {
		t.Fatal("no assignment with an ISE group was drawn")
	}
}

// TestScheduleCloneDetaches verifies that Clone yields a schedule unaffected
// by subsequent kernel calls — the contract ListSchedule relies on.
func TestScheduleCloneDetaches(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	d := randprog.DFG(r, randprog.Config{Ops: 25})
	cfg := machine.New(2, 6, 3)
	kern := NewScheduler()
	s1, err := kern.Schedule(d, AllSoftware(d.Len()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := s1.Clone()
	d2 := randprog.DFG(r, randprog.Config{Ops: 31, MemFrac: 0.3})
	if _, err := kern.Schedule(d2, AllSoftware(d2.Len()), cfg); err != nil {
		t.Fatal(err)
	}
	want, err := ListScheduleReference(d, AllSoftware(d.Len()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Length != want.Length {
		t.Fatalf("clone length %d, want %d", snap.Length, want.Length)
	}
	for i := range want.NodeCycle {
		if snap.NodeCycle[i] != want.NodeCycle[i] || snap.NodeDone[i] != want.NodeDone[i] {
			t.Fatalf("clone node %d diverged after kernel reuse", i)
		}
	}
	if !snap.Critical.Equal(want.Critical) {
		t.Fatal("clone critical set diverged after kernel reuse")
	}
}
