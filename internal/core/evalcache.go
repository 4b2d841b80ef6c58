package core

import (
	"math"
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
// dfg.Fingerprint), the assignment by its canonical 128-bit hash, and the
// machine by its index in the cache's table of scheduling shapes (see
// EvalCache.machineID). Distinct canonical assignments (or distinct DFG
// contents) collide with probability ~2^-128 (see sched.KeyHash and
// DESIGN.md §10), so equality on evalKey is equality on the evaluation for
// every practical purpose. The key is 36 plain bytes, the 64-bit words split
// low half first: with its int32 length a map slot takes 40 bytes, where
// 64-bit fields would pad it to 48.
type evalKey struct {
	dfp  [4]uint32
	h    [4]uint32
	mach uint32
}

func newEvalKey(dfp [2]uint64, h sched.KeyHash, mach uint32) evalKey {
	return evalKey{
		dfp:  [4]uint32{uint32(dfp[0]), uint32(dfp[0] >> 32), uint32(dfp[1]), uint32(dfp[1] >> 32)},
		h:    [4]uint32{uint32(h[0]), uint32(h[0] >> 32), uint32(h[1]), uint32(h[1] >> 32)},
		mach: mach,
	}
}

// evalShardOf maps a key's parts to its shard index. The assignment hash
// alone would put every block's all-software evaluation — the single
// hottest key shape — in one shard, so the DFG fingerprint and machine are
// folded in.
func evalShardOf(dfp [2]uint64, h sched.KeyHash, mach uint32) int {
	x := h[0] ^ (h[1] >> 7)
	x = x*131 + dfp[0]
	x = x*131 + dfp[1]
	x = x*131 + uint64(mach)
	return int(x & (evalShards - 1))
}

// evalFlight is the outcome of one in-flight evaluation that other lookups
// wait on. Flights are recycled within their shard, zeroed while idle, so
// once a shard has seen its peak number of concurrent misses a miss
// allocates none.
type evalFlight struct {
	n       int
	err     error
	done    bool
	waiters int
}

// evalShard holds one shard's lengths by value. A key whose evaluation is
// in flight maps to ^i (negative), where i indexes its flight; a finished
// key maps to its length (never negative, and memoized only when it fits
// an int32).
type evalShard struct {
	mu      sync.Mutex
	landed  sync.Cond         // broadcast when a flight with waiters finishes; L is &mu
	m       map[evalKey]int32 // guarded by mu
	flights []evalFlight      // guarded by mu
	free    []int32           // guarded by mu; indexes of idle flights
}

// lookup serves key k from the shard. found reports a memoized length, or
// the outcome of the in-flight evaluation it waited for (err is that
// evaluation's error). Otherwise k is now in flight under flight fi, which
// the caller must pass to finish.
func (sh *evalShard) lookup(k evalKey) (n int, fi int32, found bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[k]
	if ok && v >= 0 {
		return int(v), 0, true, nil
	}
	if ok {
		// Wait for the flight, re-indexing it after every wake: a miss may
		// have grown the slice meanwhile. The last waiter out recycles it.
		fi = ^v
		sh.flights[fi].waiters++
		for !sh.flights[fi].done {
			sh.landed.Wait()
		}
		f := &sh.flights[fi]
		n, err = f.n, f.err
		if f.waiters--; f.waiters == 0 {
			*f = evalFlight{}
			sh.free = append(sh.free, fi)
		}
		return n, 0, true, err
	}
	if last := len(sh.free) - 1; last >= 0 {
		fi = sh.free[last]
		sh.free = sh.free[:last]
	} else {
		fi = int32(len(sh.flights))
		sh.flights = append(sh.flights, evalFlight{})
	}
	sh.m[k] = ^fi
	return 0, fi, false, nil
}

// finish records the outcome of k's evaluation under flight fi: the length
// is memoized, an error (or a length the slot cannot hold) removes k. The
// flight's waiters are woken; with none it is recycled at once.
func (sh *evalShard) finish(k evalKey, fi int32, n int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil || n > math.MaxInt32 {
		delete(sh.m, k)
	} else {
		sh.m[k] = int32(n)
	}
	f := &sh.flights[fi]
	if f.waiters == 0 {
		sh.free = append(sh.free, fi)
		return
	}
	f.n, f.err, f.done = n, err, true
	sh.landed.Broadcast()
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
//
// Lengths are stored by value and in-flight records are recycled, so a hit
// allocates nothing and a miss allocates only its map's growth.
type EvalCache struct {
	shards [evalShards]evalShard

	// machines is the table of scheduling shapes keys index: each distinct
	// machine.Config seen, its Name cleared (the scheduler never reads it).
	// It is copied on write; machMu serializes writers.
	machines atomic.Pointer[[]machine.Config]
	machMu   sync.Mutex

	hits, misses atomic.Uint64
}

// NewEvalCache returns an empty schedule-evaluation cache.
func NewEvalCache() *EvalCache {
	c := &EvalCache{}
	for i := range c.shards {
		sh := &c.shards[i]
		//lint:ignore lockguard the cache is still private to its constructor; it is not published until return
		sh.m = make(map[evalKey]int32)
		sh.landed.L = &sh.mu
	}
	return c
}

// machineID returns cfg's index in the table of scheduling shapes, adding it
// on first sight. A cache meets one machine or a handful, so the lookup is
// a short scan of a table read without locking.
func (c *EvalCache) machineID(cfg machine.Config) uint32 {
	cfg.Name = ""
	if ms := c.machines.Load(); ms != nil {
		for i := range *ms {
			if (*ms)[i] == cfg {
				return uint32(i)
			}
		}
	}
	c.machMu.Lock()
	defer c.machMu.Unlock()
	var ms []machine.Config
	if p := c.machines.Load(); p != nil {
		ms = *p
	}
	for i := range ms {
		if ms[i] == cfg {
			return uint32(i)
		}
	}
	next := append(ms[:len(ms):len(ms)], cfg)
	c.machines.Store(&next)
	return uint32(len(ms))
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
	dfp, h, mach := d.Fingerprint(), a.KeyHash(), c.machineID(cfg)
	k := newEvalKey(dfp, h, mach)
	si := evalShardOf(dfp, h, mach)
	sh := &c.shards[si]
	n, fi, found, err := sh.lookup(k)
	if found {
		if err != nil {
			// The in-flight computation failed: this lookup was served the
			// propagated error, not a result. It ran no scheduler, so it is
			// not a miss; it got no result, so it is not a hit either.
			return 0, err
		}
		c.hits.Add(1)
		obsCacheHits[si].Inc()
		return n, nil
	}
	c.misses.Add(1)
	n, err = scheduleLen(kern, d, a, cfg)
	sh.finish(k, fi, n, err)
	if err != nil {
		return 0, err
	}
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
