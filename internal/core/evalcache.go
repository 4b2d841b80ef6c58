package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/sched"
)

// evalShards is the number of independently locked cache shards. A power of
// two so shard selection is a mask; 16 keeps contention negligible at any
// worker count this repository uses while wasting nothing at one worker.
const evalShards = 16

// evalKey identifies one schedule evaluation: the DFG by its 128-bit content
// fingerprint (never by name — two distinct DFGs may share one; see
// dfg.Fingerprint), the machine by its full comparable Config value, and the
// assignment by its canonical 128-bit hash. Distinct canonical assignments
// (or distinct DFG contents) collide with probability ~2^-128 (see
// sched.KeyHash and DESIGN.md §10), so equality on evalKey is equality on
// the evaluation for every practical purpose.
type evalKey struct {
	dfp [2]uint64
	cfg machine.Config
	h   sched.KeyHash
}

// shard maps the key to its shard index. The assignment hash alone would put
// every block's all-software evaluation — the single hottest key shape — in
// one shard, so the DFG fingerprint and machine shape are folded in.
func (k evalKey) shard() int {
	h := k.h[0] ^ (k.h[1] >> 7)
	h = h*131 + k.dfp[0]
	h = h*131 + k.dfp[1]
	h = h*131 + uint64(k.cfg.IssueWidth)
	h = h*131 + uint64(k.cfg.ReadPorts)
	h = h*131 + uint64(k.cfg.WritePorts)
	h = h*131 + uint64(k.cfg.ASFUs)
	for _, n := range k.cfg.FUs {
		h = h*131 + uint64(n)
	}
	for i := 0; i < len(k.cfg.Name); i++ {
		h = h*131 + uint64(k.cfg.Name[i])
	}
	return int(h & (evalShards - 1))
}

// evalEntry is one memoized (or in-flight) evaluation. done is closed when n
// and err are final; waiters block on it instead of re-scheduling, so
// concurrent misses on one key cost exactly one schedule (singleflight).
type evalEntry struct {
	done chan struct{}
	n    int
	err  error
}

type evalShard struct {
	mu sync.Mutex
	m  map[evalKey]*evalEntry // guarded by mu
}

// EvalCache memoizes schedule evaluations. The exploration loop and the
// flow's candidate pricing both call the scheduler on assignments they have
// already priced — every ACO round re-evaluates the accepted-ISE prefix plus
// one candidate, and flow.realMarginalGains replays exactly those prefixes —
// so keying the resulting length on a canonical assignment signature
// (sched.Assignment.KeyHash, which canonicalizes ISE group numbering and
// covers node sets, option choices and hence group latencies) removes the
// dominant repeated cost.
//
// The cache is safe for concurrent use; parallel restart workers share one
// instance. It is sharded to keep lock traffic off the workers, and each
// shard runs singleflight on misses: concurrent lookups of a key being
// computed wait for the in-flight evaluation instead of scheduling again.
// That makes the hit/miss counters exact — a miss is a lookup that actually
// ran the scheduler, a hit is one that was served a successful result
// without running it (including waiters on an in-flight computation that
// succeeds), and hits+misses equals the successful lookups plus the
// scheduler invocations. A waiter whose in-flight computation fails is
// counted as neither: it caused no scheduler invocation and received no
// result, only the propagated error. Lookups are semantically transparent —
// the scheduler is deterministic — so cached and uncached runs return
// identical results. Errors are not cached: the computing call removes the
// entry before publishing the error, so a failing assignment never pollutes
// the memo (waiters of that in-flight computation still receive the same
// deterministic error).
type EvalCache struct {
	shards [evalShards]evalShard

	hits, misses atomic.Uint64
}

// NewEvalCache returns an empty schedule-evaluation cache.
func NewEvalCache() *EvalCache {
	c := &EvalCache{}
	for i := range c.shards {
		//lint:ignore lockguard the cache is still private to its constructor; it is not published until return
		c.shards[i].m = make(map[evalKey]*evalEntry)
	}
	return c
}

// Schedule returns the list-schedule length of d under assignment a on cfg,
// consulting the memo first. A nil receiver disables memoization and
// schedules directly (the NoEvalCache measurement switch).
func (c *EvalCache) Schedule(d *dfg.DFG, a sched.Assignment, cfg machine.Config) (int, error) {
	return c.ScheduleWith(nil, d, a, cfg)
}

// ScheduleWith is Schedule evaluating misses on kern, the caller's reusable
// scheduling kernel, so the miss path inherits the kernel's arena reuse. A
// nil kern falls back to a pooled kernel.
func (c *EvalCache) ScheduleWith(kern *sched.Scheduler, d *dfg.DFG, a sched.Assignment, cfg machine.Config) (int, error) {
	if c == nil {
		return scheduleLen(kern, d, a, cfg)
	}
	k := evalKey{dfp: d.Fingerprint(), cfg: cfg, h: a.KeyHash()}
	si := k.shard()
	sh := &c.shards[si]
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		<-e.done
		if e.err != nil {
			// The in-flight computation failed: this lookup was served the
			// propagated error, not a result. It ran no scheduler, so it is
			// not a miss; it got no result, so it is not a hit either.
			return 0, e.err
		}
		c.hits.Add(1)
		obsCacheHits[si].Inc()
		return e.n, nil
	}
	e := &evalEntry{done: make(chan struct{})}
	sh.m[k] = e
	sh.mu.Unlock()
	c.misses.Add(1)
	n, err := scheduleLen(kern, d, a, cfg)
	if err != nil {
		sh.mu.Lock()
		delete(sh.m, k)
		sh.mu.Unlock()
		e.err = err
		close(e.done)
		return 0, err
	}
	e.n = n
	close(e.done)
	return n, nil
}

// evalSchedInvocations counts every real scheduler invocation made on the
// evaluation path — exactly what the cache's miss counter promises to track.
// Test support only (the kernel-bypass and error-accounting tests assert
// against it); it is never read back into exploration decisions.
var evalSchedInvocations atomic.Uint64

func scheduleLen(kern *sched.Scheduler, d *dfg.DFG, a sched.Assignment, cfg machine.Config) (int, error) {
	evalSchedInvocations.Add(1)
	if kern == nil {
		return sched.ListScheduleLength(d, a, cfg)
	}
	s, err := kern.Schedule(d, a, cfg)
	if err != nil {
		return 0, err
	}
	return s.Length, nil
}

// Stats returns the cumulative hit and miss counts. With singleflight these
// are exact: misses count scheduler invocations, hits count lookups served a
// successful result without one. Waiters whose in-flight computation fails
// count as neither (they neither scheduled nor received a result), so
// hits+misses equals lookups minus error-waiters.
func (c *EvalCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of memoized evaluations, including in-flight ones.
func (c *EvalCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
