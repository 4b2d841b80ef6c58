.PHONY: tier1 race lint bench benchall fmt results serve-smoke cluster-smoke profile

# Tier 1: the fast correctness gate.
tier1:
	go build ./...
	go test ./...

# Static analysis: the project lint suite (iselint enforces the determinism,
# zero-allocation and concurrency contracts; see DESIGN.md §9) plus gofmt
# cleanliness. The sweep covers the commands too, so the daemon and CLIs sit
# under the same passes as the library. Findings are cached under .cache/lint
# keyed by the content hash of every module source file, so a no-op re-run is
# instant; any source edit invalidates the whole program-level entry.
lint:
	go run ./cmd/iselint -cache .cache/lint ./internal/... ./cmd/...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Tier 2: lint + vet + race detector across every package (slower; run
# before merging anything that touches internal/parallel, core, or flow).
race: lint
	go vet ./...
	go test -race ./...

# Benchmarks: one Go benchmark per layer, 5 repetitions each, printed as
# plain `go test` output: VMProfile (profiling), SchedSteadyState (the
# scheduling kernel), MatchFind (subgraph matching), Merge (the merging
# stage's matching) and Evaluate (a cold Pool.Evaluate, mostly replacement
# matching) on the crc32/O3 pool, Convex (the closure-backed convexity test
# of both explorers' merit sweeps, 0 allocs/op), ExploreMI / ExploreSI plus
# the engine-ablation pair (exploration), ExploreRestartMI / ExploreRestartSI
# (one restart on one worker on jpeg/O3's hottest block: the per-iteration
# cost without the restart fan-out), BuildPool and Headline (the flow), and
# internal/core's instrumented round-loop pair
# ExploreIter{Trace,Flight}{Off,On}, whose nil-path variants must stay at
# 0 allocs/op (DESIGN.md §16), internal/baseline's BaselineIter (one
# steady-state SI iteration, 0 allocs/op), and internal/cluster's
# FleetJob/{Untraced,Traced} (one two-shard adpcm/O3 job on two loopback
# workers; the untraced job ships no spans, so it allocates several times
# less than the traced one). End-to-end numbers come from perfbench:
# `bash perfbench/run.sh --steady K` interleaves two sets of runs and
# `--trace 1` attributes time per layer. `make benchall` runs every root
# benchmark.
bench:
	go test -bench 'Explore|Headline|BuildPool|MatchFind|Merge|Evaluate|Convex|VMProfile|SchedSteadyState|BaselineIter|FleetJob' -benchmem -count 5 -run '^$$' . ./internal/core ./internal/baseline ./internal/cluster

benchall:
	go test -bench=. -benchmem

fmt:
	gofmt -l .

# Pin the paper's numbers to the code: regenerate every table and figure
# and diff the output against results_full.txt line for line, ignoring only
# the run's `done in` timing line and the `wrote figs/...` lines that
# -svg adds to the committed capture. No -svg here, so nothing is written
# into figs/. A change that moves a number fails until it regenerates the
# file (`go run ./cmd/isebench -all -stats -svg figs > results_full.txt`).
results:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	go run ./cmd/isebench -all -stats > "$$out" && \
	diff -u -I '^done in ' -I '^wrote ' results_full.txt "$$out" && \
	echo "results: isebench -all -stats reproduces results_full.txt"

# End-to-end smoke test of the service daemon: builds the real iseserve and
# iseexplore binaries, boots the daemon on a random port, submits a job over
# HTTP, streams its SSE progress, asserts the result matches the CLI run, and
# scrapes /metrics, failing on malformed Prometheus exposition lines. Gated
# behind an env var so plain `go test ./...` stays fast.
serve-smoke:
	ISESERVE_SMOKE=1 go test -run TestServeSmoke -v ./cmd/iseserve/

# End-to-end smoke test of fleet mode (DESIGN.md §15–16): boots one
# coordinator and two worker daemons on loopback, runs the same distributed
# job twice, asserts both results match the single-node CLI answer byte for
# byte, and validates the fleet observability surface: the coordinator's
# /metrics carries the cluster families, the merged Chrome trace shows
# both workers' tracks inside the coordinator's dispatch spans on one
# monotone timeline, both jobs record identical convergence flight series,
# and /v1/fleet/metrics serves a valid node-labeled exposition.
cluster-smoke:
	ISECLUSTER_SMOKE=1 go test -run TestClusterSmoke -v ./cmd/iseserve/

# CPU-profile the headline benchmark and print the top-10 hot functions.
# Artifacts land in /tmp so the repo stays clean. On a 2-core x86-64 VM the
# run takes about 1.5 s: MI exploration is about 46% of CPU, SI 12%, and
# subgraph matching 18% (13% replacement's cross-block matches, 5%
# merging). The full matrix has another mix (exploration about 80%,
# matching 5.5%); profile it with `go run ./cmd/isebench -all -cpuprofile
# <file>`.
profile:
	go run ./cmd/isebench -headline -fast -cpuprofile /tmp/ise-cpu.out
	go tool pprof -top -nodecount=10 /tmp/ise-cpu.out
