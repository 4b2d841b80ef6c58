package sched

import "repro/internal/obs"

// obsScheduleCalls counts kernel invocations on the obs.Default registry.
// Observation-only: written on the hot path (one counter CAS per call),
// never read back; the kernel's 0 allocs/op steady state is unchanged
// (counters allocate nothing).
var obsScheduleCalls = obs.Default.Counter("ise_sched_schedule_calls_total",
	"List-scheduling kernel invocations.")
