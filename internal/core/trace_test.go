package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// TestTracingDeterminism is the observation-only proof for the obs layer:
// exploration with a live tracer attached returns a Result byte-identical to
// the untraced run, at every worker count the repo's determinism contract
// covers. If a span, counter or trace argument ever fed back into engine
// state, this is the test that breaks.
func TestTracingDeterminism(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 3

	p.Workers = 1
	plain, _, err := ExploreResumable(context.Background(), d, cfg, p, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 4, 8} {
		p.Workers = w
		tr := obs.NewTracer()
		traced, _, err := ExploreResumable(context.Background(), d, cfg, p, ResumeOptions{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("traced workers=%d vs untraced", w), plain, traced)
		if tr.Len() == 0 {
			t.Fatalf("workers=%d: tracer recorded no events", w)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("workers=%d: trace JSON: %v", w, err)
		}
		seen := map[string]bool{}
		for _, e := range out.TraceEvents {
			seen[e.Name] = true
		}
		for _, want := range []string{"restart", "round", "walk", "trail", "evaluate", "sched"} {
			if !seen[want] {
				t.Errorf("workers=%d: no %q span in trace", w, want)
			}
		}
	}
}

// TestRestartDetachesTracer: a restart detaches its tracer from the pooled
// kernel when it returns, so a later untraced exploration on the same
// Scratch records nothing into the earlier one's tracer — its base
// schedule included, which runs on a pooled kernel outside any restart.
func TestRestartDetachesTracer(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	cfg := machine.New(2, 4, 2)
	p := FastParams()
	p.Restarts = 2
	p.Workers = 1
	scr := NewScratch()
	tr := obs.NewTracer()
	if _, _, err := ExploreResumable(context.Background(), d, cfg, p, ResumeOptions{Trace: tr, Scratch: scr}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Len()
	if spans == 0 {
		t.Fatal("traced exploration recorded no spans")
	}
	if _, _, err := ExploreResumable(context.Background(), d, cfg, p, ResumeOptions{Scratch: scr}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != spans {
		t.Fatalf("untraced exploration on the same scratch recorded %d spans into the earlier tracer", got-spans)
	}
}
