.PHONY: tier1 race lint bench benchall fmt loc results serve-smoke cluster-smoke profile

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
# stage's canonical hashing and matching, on the crc32/O3 MI pool and, as
# Merge/SI-seed2, on the crc32/O3 SI pool at seed 2) and Evaluate (a cold
# Pool.Evaluate: selection, occurrence searches and scheduling) on the
# crc32/O3 pool, Convex (the closure-backed convexity test
# of both explorers' merit sweeps, 0 allocs/op), ExploreMI / ExploreSI plus
# the engine-ablation pair (exploration), ExploreRestartMI / ExploreRestartSI
# (one restart on one worker on jpeg/O3's hottest block: the per-iteration
# cost without the restart fan-out), ExploreRestartMIAdpcm (the same MI
# restart on adpcm/O3's hottest block, the block of every perfbench
# fleet-jobs job), BuildPool, BuildMultiPool (a crc32/O3 +
# adpcm/O3 suite pool and its suite-wide re-pricing), DesignPoint (one
# perfbench flow-match design point each on crc32/O3 and adpcm/O3 and one
# flow-explore design point on jpeg/O3 under the paper's parameters, MI and
# SI: a pool build plus its 12 evaluations) and Headline (the flow), and
# internal/core's instrumented round-loop pair
# ExploreIter{Trace,Flight}{Off,On}, whose nil-path variants must stay at
# 0 allocs/op (DESIGN.md §16), internal/core's BaselineIter (one
# steady-state SI iteration, 0 allocs/op), and internal/cluster's
# FleetJob/{Untraced,Traced} (one two-shard adpcm/O3 job on two loopback
# workers; the untraced job ships no spans, so it allocates several times
# less than the traced one). End-to-end numbers come from perfbench:
# `bash perfbench/run.sh --steady K` interleaves two sets of runs and
# `--trace 1` attributes time per layer. `make benchall` runs every root
# benchmark.
bench:
	go test -bench 'Explore|Headline|BuildPool|BuildMultiPool|DesignPoint|MatchFind|Merge|Evaluate|Convex|VMProfile|SchedSteadyState|BaselineIter|FleetJob' -benchmem -count 5 -run '^$$' . ./internal/core ./internal/baseline ./internal/cluster

benchall:
	go test -bench=. -benchmem

fmt:
	gofmt -l .

# Non-test code lines under internal/ and cmd/: every .go file except tests
# and lint fixtures, without blank and comment-only lines. CHANGES.md and
# ROADMAP.md quote this count.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | grep -vcE '^\s*($$|//)'

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
# run takes about 1 s, and exploration (MI and SI) is about 87% of CPU;
# subgraph matching is below 1%. The full matrix is exploration too (about
# 93%); profile it with `go run ./cmd/isebench -all -cpuprofile <file>`.
profile:
	go run ./cmd/isebench -headline -fast -cpuprofile /tmp/ise-cpu.out
	go tool pprof -top -nodecount=10 /tmp/ise-cpu.out
