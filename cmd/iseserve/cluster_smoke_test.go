package main

// TestClusterSmoke is the `make cluster-smoke` target: it builds the real
// iseserve binary, boots one coordinator and two worker daemons on loopback,
// runs the same distributed job twice, and asserts (a) both results match
// what the iseexplore CLI prints for the identical kernel/machine/parameters
// — the fleet determinism contract end to end over real processes and real
// HTTP — (b) the merged Chrome trace shows the coordinator's dispatch spans
// plus both workers' uploaded span tracks on one monotone timeline, (c) both
// jobs record the identical convergence ("round") flight series, (d) the
// coordinator's /metrics carries the cluster families after each job, and
// (e) GET /v1/fleet/metrics renders a valid node-labeled exposition covering
// the coordinator and both workers. It finishes by SIGTERMing all three
// daemons. Gated behind ISECLUSTER_SMOKE so `go test ./...` stays fast.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestClusterSmoke(t *testing.T) {
	if os.Getenv("ISECLUSTER_SMOKE") == "" {
		t.Skip("set ISECLUSTER_SMOKE=1 (or run `make cluster-smoke`) to run the fleet smoke test")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "iseserve")
	exploreBin := filepath.Join(dir, "iseexplore")
	build(t, serveBin, ".")
	build(t, exploreBin, "../iseexplore")

	// CLI reference run: crc32/O3, 2-issue 4/2, fast parameters, seed 1 —
	// the single-node answer every fleet topology must reproduce.
	cliOut, err := exec.Command(exploreBin,
		"-bench", "crc32", "-issue", "2", "-read", "4", "-write", "2",
		"-fast", "-seed", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("iseexplore: %v\n%s", err, cliOut)
	}
	wantBase, wantFinal := parseScheduleLine(t, string(cliOut))
	t.Logf("CLI: %d -> %d cycles", wantBase, wantFinal)

	// One coordinator, two workers, all real processes on loopback.
	coord, coordURL := startDaemon(t, serveBin,
		"-addr", "127.0.0.1:0", "-runners", "1", "-coordinator")
	t.Logf("coordinator at %s", coordURL)
	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		var url string
		// The tight claim poll makes both workers grab a shard of these
		// sub-second jobs, so the merged trace shows two worker tracks.
		workers[i], url = startDaemon(t, serveBin,
			"-addr", "127.0.0.1:0", "-worker-of", coordURL,
			"-cluster-checkpoint", "500ms", "-cluster-poll", "5ms")
		t.Logf("worker %d at %s", i, url)
	}

	// Two identical distributed jobs, back to back; each shard starts with
	// an empty local eval cache.
	p := core.FastParams()
	p.Seed = 1
	spec := map[string]any{
		"name":        "cluster-smoke",
		"bench":       "crc32",
		"machine":     map[string]int{"issue": 2, "read_ports": 4, "write_ports": 2},
		"params":      p,
		"trace":       true,
		"distributed": map[string]int{"shards": 2},
	}
	rounds := map[string]string{}
	for _, run := range []string{"A", "B"} {
		id, base, final, shardEvents := runDistributedJob(t, coordURL, spec)
		if base != wantBase || final != wantFinal {
			t.Fatalf("job %s: fleet result %d -> %d cycles, CLI says %d -> %d",
				run, base, final, wantBase, wantFinal)
		}
		if shardEvents != 2 {
			t.Fatalf("job %s: %d shard_done events, want 2", run, shardEvents)
		}
		checkMergedTrace(t, coordURL, id)
		rounds[run] = fetchRoundSeries(t, coordURL, id)
		scrapeClusterMetrics(t, coordURL)
		t.Logf("job %s: %d -> %d cycles", run, base, final)
	}
	// The convergence journal is deterministic: two identical jobs — each
	// sharded across two processes, with shard B's rounds rebased onto global
	// restart indices — must record byte-identical round series.
	if rounds["A"] != rounds["B"] {
		t.Fatalf("round flight series differ between identical jobs:\nA: %s\nB: %s",
			rounds["A"], rounds["B"])
	}
	checkFleetMetrics(t, coordURL)

	// All three daemons drain cleanly on SIGTERM.
	for _, cmd := range append([]*exec.Cmd{coord}, workers...) {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for _, cmd := range append([]*exec.Cmd{coord}, workers...) {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
		}
	}
}

// startDaemon boots one iseserve process and waits for its listen address.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	return cmd, waitListening(t, stderr)
}

// runDistributedJob submits spec, streams its events to completion, and
// returns the job id, the block's cycle counts, and the shard_done event
// count.
func runDistributedJob(t *testing.T, baseURL string, spec map[string]any) (id string, base, final, shardEvents int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	sresp, err := http.Get(baseURL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		last = ev.Type
		if ev.Type == "shard_done" {
			shardEvents++
		}
	}
	sresp.Body.Close()
	if last != "done" {
		t.Fatalf("event stream ended on %q, want done", last)
	}

	resp, err = http.Get(baseURL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		State  string `json:"state"`
		Blocks []struct {
			BaseCycles  int `json:"base_cycles"`
			FinalCycles int `json:"final_cycles"`
		} `json:"blocks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.State != "done" || len(status.Blocks) != 1 {
		t.Fatalf("status %+v", status)
	}
	return submitted.ID, status.Blocks[0].BaseCycles, status.Blocks[0].FinalCycles, shardEvents
}

// checkMergedTrace fetches the job's merged Chrome trace and asserts the
// fleet timeline contract: the coordinator's two dispatch spans on pid 0,
// at least two distinct worker process rows (named by Import from the
// uploaded sidecars), worker spans nested inside their dispatch windows,
// and a globally monotone event order.
func checkMergedTrace(t *testing.T, baseURL, id string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	workers := map[int]string{}
	dispatch := map[float64][2]int64{} // shard -> [ts, end] on pid 0
	var last int64 = -1 << 62
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "process_name" {
				if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "worker ") {
					workers[ev.PID] = name
				}
			}
			continue
		}
		if ev.Ts < last {
			t.Fatalf("merged trace is not monotone: %q at %d after %d", ev.Name, ev.Ts, last)
		}
		last = ev.Ts
		if ev.PID == 0 && ev.Name == "shard" {
			sh, ok := ev.Args["shard"].(float64)
			if !ok {
				t.Fatalf("dispatch span without shard arg: %+v", ev)
			}
			dispatch[sh] = [2]int64{ev.Ts, ev.Ts + ev.Dur}
		}
	}
	if len(workers) < 2 {
		t.Fatalf("merged trace names %d worker process rows, want >= 2: %v", len(workers), workers)
	}
	if len(dispatch) != 2 {
		t.Fatalf("merged trace has %d pid-0 dispatch spans, want 2", len(dispatch))
	}
	nested := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || workers[ev.PID] == "" {
			continue
		}
		inside := false
		for _, win := range dispatch {
			if ev.Ts >= win[0] && ev.Ts+ev.Dur <= win[1] {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("worker span %q (%s) [%d,%d] outside every dispatch window %v",
				ev.Name, workers[ev.PID], ev.Ts, ev.Ts+ev.Dur, dispatch)
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("merged trace has no worker spans")
	}
	t.Logf("trace %s: %d events, %d worker spans across %d worker rows",
		id, len(doc.TraceEvents), nested, len(workers))
}

// fetchRoundSeries returns the job's deterministic convergence samples —
// flight kind "round" only — as canonical JSON for cross-job comparison.
func fetchRoundSeries(t *testing.T, baseURL, id string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: status %d", resp.StatusCode)
	}
	var body struct {
		Samples []obs.FlightSample `json:"samples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var rounds []obs.FlightSample
	for _, s := range body.Samples {
		if s.Kind == obs.FlightRound {
			rounds = append(rounds, s)
		}
	}
	if len(rounds) == 0 {
		t.Fatalf("flight journal of %s has no round samples (%d total)", id, len(body.Samples))
	}
	b, err := json.Marshal(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkFleetMetrics fetches the coordinator's merged fleet exposition and
// asserts it is valid Prometheus text whose samples cover the coordinator,
// both workers, and the synthetic fleet-aggregate series — with the build
// stamp visible per node.
func checkFleetMetrics(t *testing.T, baseURL string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet metrics: status %d: %s", resp.StatusCode, exposition)
	}
	if err := obs.ValidateExposition(bytes.NewReader(exposition)); err != nil {
		t.Fatalf("malformed fleet exposition: %v\n%s", err, exposition)
	}
	nodes := map[string]bool{}
	for _, m := range regexp.MustCompile(`node="([^"]*)"`).FindAllStringSubmatch(string(exposition), -1) {
		nodes[m[1]] = true
	}
	if !nodes["coordinator"] || !nodes[obs.FleetNodeLabel] {
		t.Fatalf("fleet exposition nodes %v: missing coordinator or %s aggregate", nodes, obs.FleetNodeLabel)
	}
	if got := len(nodes); got < 4 { // coordinator + fleet + 2 workers
		t.Fatalf("fleet exposition covers %d nodes (%v), want >= 4", got, nodes)
	}
	if !strings.Contains(string(exposition), "ise_build_info") {
		t.Fatalf("fleet exposition missing ise_build_info:\n%s", exposition)
	}
	t.Logf("fleet exposition: %d bytes, nodes %v", len(exposition), nodes)
}

// scrapeClusterMetrics validates the coordinator's exposition and requires
// the cluster families.
func scrapeClusterMetrics(t *testing.T, baseURL string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(exposition)); err != nil {
		t.Fatalf("malformed Prometheus exposition: %v\n%s", err, exposition)
	}
	for _, family := range []string{
		"ise_cluster_shards_total",
		"ise_cluster_shard_retries_total",
		"ise_cluster_shard_cache_hits_total",
	} {
		if !strings.Contains(string(exposition), family) {
			t.Fatalf("/metrics missing family %s:\n%s", family, exposition)
		}
	}
}
