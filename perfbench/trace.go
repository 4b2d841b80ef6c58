package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; parent is
// the index of the enclosing span in the recorder (-1 for the op itself).
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Time
	End    time.Time
	// Layer spans count towards trace.unaccounted_pct coverage; probe spans
	// (attribution work the program itself does not do) sit outside ops.
	Layer bool
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced code paths share the traced ones at no cost.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, op, parent int, layer bool) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: time.Now(), Layer: layer})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (e.g. the job
// timestamps the service reports).
func (r *recorder) add(name string, op, parent int, start, end time.Time, layer bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end, Layer: layer})
	r.mu.Unlock()
}

// do runs fn inside a layer span.
func (r *recorder) do(name string, op, parent int, fn func()) {
	i := r.begin(name, op, parent, true)
	fn()
	r.end(i)
}

// totals sums span durations (ms) and counts per name. Spans an error left
// open are skipped.
func (r *recorder) totals() (ms map[string]float64, n map[string]int) {
	ms, n = map[string]float64{}, map[string]int{}
	for _, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		ms[s.Name] += s.ms()
		n[s.Name]++
	}
	return ms, n
}

// covered returns the time (ms) inside [start, end] that the union of the
// op's layer spans covers, counting only spans whose name passes keep (all
// layer spans if keep is nil). Spans of parallel workers overlap; the union
// counts each instant once.
func (r *recorder) covered(op int, start, end time.Time, keep map[string]bool) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range r.spans {
		if s.Op != op || !s.Layer || s.End.IsZero() || (keep != nil && !keep[s.Name]) {
			continue
		}
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return float64(total) / float64(time.Millisecond)
}

// writeChrome writes the spans as a Chrome trace-event file (loadable in
// Perfetto or chrome://tracing): one track per op, nested by time.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op + 1,
			Ts:   float64(s.Start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// count adds v to a named per-layer counter.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
	r.mu.Unlock()
}
