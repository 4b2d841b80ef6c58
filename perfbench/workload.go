package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/flow"
	"repro/internal/machine"
)

// flowOp is one design point of the paper flow: build the pool for a kernel
// on a machine with an ACO seed, then evaluate it at every constraint point
// of Figs 5.2.1 and 5.2.2 — once per algorithm listed, in order.
type flowOp struct {
	Kernel  string           `json:"kernel"`
	Opt     string           `json:"opt"`
	Machine int              `json:"machine"` // index into machine.Configs()
	Algos   []flow.Algorithm `json:"algos"`
	Seed    int64            `json:"seed"`
}

// fleetOp is one distributed iseserve job on adpcm/O3's hottest block.
// Repeat marks a spec that an earlier op of the list already submitted.
type fleetOp struct {
	Machine int   `json:"machine"`
	Seed    int64 `json:"seed"`
	Repeat  bool  `json:"repeat,omitempty"`
}

type op struct {
	Flow  *flowOp  `json:"flow,omitempty"`
	Fleet *fleetOp `json:"fleet,omitempty"`
}

// result is what one execution of an op answered. fingerprint covers every
// answer the op produced, so two executions of the same op agree exactly
// when their fingerprints do; reduction is the op's mean simulated
// execution-time reduction in percent.
type result struct {
	reduction   float64
	fingerprint string
	detail      any // workload-specific data the output checks need
}

// env is a workload's running system under test.
type env interface {
	// run executes one op through the program's public entry points and
	// returns its answers. With rec non-nil the op is re-enacted layer by
	// layer from the benchmark's side and every layer call is recorded as
	// a span of op index i.
	run(ctx context.Context, i int, o op, rec *recorder) (*result, error)
	// check verifies an op's answers. It runs outside the timed span; with
	// rec non-nil it may also record per-layer attribution that needs work
	// the op itself does not do.
	check(ctx context.Context, i int, o op, r *result, rec *recorder) error
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// nominalOpMS is the typical op cost on a 2-core x86-64 host; it sizes
	// the op list so a run measures for about --seconds.
	nominalOpMS float64
	// minOps keeps at least this many ops in a run: the workload's whole
	// grid, and enough that op_tail_ms has ten ops beyond it at or above
	// the median.
	minOps int
	gen    func(rng *rand.Rand, n int) []op
	setup  func(ctx context.Context) (env, error)
}

var workloads = map[string]*workload{
	"flow-match":   {name: "flow-match", nominalOpMS: 1300, minOps: 30, gen: genFlowMatch, setup: setupFlow},
	"flow-explore": {name: "flow-explore", nominalOpMS: 1200, minOps: 25, gen: genFlowExplore, setup: setupFlow},
	"fleet-jobs":   {name: "fleet-jobs", nominalOpMS: 350, minOps: 20, gen: genFleetJobs, setup: setupFleet},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opCount sizes a run's op list from the measuring time.
func (w *workload) opCount(seconds float64) int {
	n := int(math.Round(seconds * 1000 / w.nominalOpMS))
	if n < w.minOps {
		n = w.minOps
	}
	return n
}

// opList is the workload's op list: a pure function of (workload, seed, n).
func (w *workload) opList(seed int64, n int) []op {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
	return w.gen(rng, n)
}

// opListHash identifies an op list in every run's output.
func opListHash(ops []op) string {
	b, err := json.Marshal(ops)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func allMachines() []int {
	idx := make([]int, len(machine.Configs()))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// The op lists below take their first n entries from a fixed grid of
// design points (or job specs), and the workload seed deals them in a
// shuffled order. Every run of a workload thus measures the same multiset
// of ops and gives the same answers; drawing ACO seeds per run instead made
// flow-match's median move by a third between seeds, because a crc32 design
// point costs 0.1 to 1.6 s depending on what the exploration finds.

// grid returns a design point per ACO seed and machine for one kernel.
func grid(kernel [2]string, machines []int, seeds ...int64) []flowOp {
	var g []flowOp
	for _, s := range seeds {
		for _, m := range machines {
			g = append(g, flowOp{Kernel: kernel[0], Opt: kernel[1], Machine: m, Algos: []flow.Algorithm{flow.MI, flow.SI}, Seed: s})
		}
	}
	return g
}

// designPoints returns n ops from the grid, cycling through it (with the
// ACO seeds raised by 1000 per cycle) when n asks for more. With split, each
// design point is an MI op and an SI op; without, one op evaluating both.
func designPoints(rng *rand.Rand, n int, g []flowOp, split bool) []op {
	var points [][]op
	for k, ops := 0, 0; ops < n; k++ {
		f := g[k%len(g)]
		f.Seed += int64(1000 * (k / len(g)))
		if !split {
			points = append(points, []op{{Flow: &f}})
			ops++
			continue
		}
		mi, si := f, f
		mi.Algos, si.Algos = f.Algos[:1], f.Algos[1:]
		points = append(points, []op{{Flow: &mi}, {Flow: &si}})
		ops += 2
	}
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	var ops []op
	for _, p := range points {
		ops = append(ops, p...)
	}
	return ops[:n]
}

// genFlowMatch runs crc32/O3 on every machine with ACO seeds 1 and 2, and
// adpcm/O3 on one machine per issue width: crc32's ops cost about 0.4-1.6 s
// and most of adpcm's 2-4 s, so with adpcm a quarter of the design points
// the median and op_tail_ms both sit inside crc32's cost mode, clear of the
// gap to adpcm's.
func genFlowMatch(rng *rand.Rand, n int) []op {
	crc, adpcm := [2]string{"crc32", "O3"}, [2]string{"adpcm", "O3"}
	g := append(grid(crc, allMachines(), 1, 2), grid(adpcm, []int{0, 2, 4}, 1)...)
	return designPoints(rng, n, g, true)
}

// genFlowExplore evaluates MI and SI in one op: jpeg's MI ops cost about
// twice its SI ops, so separate ops would put the median on the gap between
// them. It leaves out the 4-issue 10/5 machine, on which jpeg's cold
// replacement matches for 100-300 ms and the op is no longer
// exploration-bound.
func genFlowExplore(rng *rand.Rand, n int) []op {
	ms := allMachines()
	return designPoints(rng, n, grid([2]string{"jpeg", "O3"}, ms[:len(ms)-1], 1, 2, 3, 4, 5), false)
}

// genFleetJobs takes n - n/4 job specs from the machines x seeds grid and
// submits the first n/4 of them twice; a spec's second submission is its
// repeat.
func genFleetJobs(rng *rand.Rand, n int) []op {
	ms := allMachines()
	fresh := n - n/4
	ops := make([]op, 0, n)
	for k := 0; k < n; k++ {
		j := k
		if k >= fresh {
			j = k - fresh
		}
		ops = append(ops, op{Fleet: &fleetOp{Machine: ms[j%len(ms)], Seed: int64(1 + j/len(ms))}})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	seen := map[fleetOp]bool{}
	for _, o := range ops {
		o.Fleet.Repeat = seen[*o.Fleet]
		seen[*o.Fleet] = true
	}
	return ops
}

func (o op) String() string {
	switch {
	case o.Flow != nil:
		f := o.Flow
		return fmt.Sprintf("%s/%s %s %v seed %d", f.Kernel, f.Opt, machine.Configs()[f.Machine].Name, f.Algos, f.Seed)
	case o.Fleet != nil:
		return fmt.Sprintf("adpcm/O3 job %s seed %d repeat %v", machine.Configs()[o.Fleet.Machine].Name, o.Fleet.Seed, o.Fleet.Repeat)
	}
	return "empty op"
}
