.PHONY: tier1 race lint bench benchall fmt serve-smoke cluster-smoke profile

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
# scheduling kernel), MatchFind (subgraph matching), ExploreMI / ExploreSI
# plus the engine-ablation pair (exploration), BuildPool and Headline (the
# flow), and internal/core's instrumented round-loop pair
# ExploreIter{Trace,Flight}{Off,On}, whose nil-path variants must stay at
# 0 allocs/op (DESIGN.md §16). End-to-end numbers come from perfbench:
# `bash perfbench/run.sh --steady K` interleaves two sets of runs and
# `--trace 1` attributes time per layer. `make benchall` runs every root
# benchmark.
bench:
	go test -bench 'Explore|Headline|BuildPool|MatchFind|VMProfile|SchedSteadyState' -benchmem -count 5 -run '^$$' . ./internal/core

benchall:
	go test -bench=. -benchmem

fmt:
	gofmt -l .

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
# Artifacts land in /tmp so the repo stays clean.
profile:
	go run ./cmd/isebench -headline -fast -cpuprofile /tmp/ise-cpu.out
	go tool pprof -top -nodecount=10 /tmp/ise-cpu.out
