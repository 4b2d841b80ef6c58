package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRecord is what one benchmark run printed.
type runRecord struct {
	out  output
	opMS []float64
	line string // the result line
}

// steadiness runs two sets (A and B) of k runs of every selected workload,
// alternating A and B run by run (seed seed0+j for the j-th run of both
// sets), and prints per workload and metric both medians, both quartile
// spreads and B's change against the metric's bound. It flags the two ways
// a benchmark measures noise instead of the program: ops so short that timer
// and GC jitter dominate, and a percentile falling in the gap between two
// op-cost modes.
func steadiness(k int, only string, seed0 int64, seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if spec.RunSeconds > 0 {
		seconds = spec.RunSeconds
	}
	names := workloadNames()
	if only != "" {
		names = strings.Split(only, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		sets := [2][]runRecord{}
		for j := 0; j < k; j++ {
			order := []int{0, 1}
			if j%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				r, err := runOnce(exe, name, seed0+int64(j), seconds)
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", name, j, 'A'+s, err)
				}
				fmt.Printf("%s set %c seed %d: %s\n", name, 'A'+s, seed0+int64(j), r.line)
				sets[s] = append(sets[s], r)
			}
		}
		fmt.Printf("\n%s: %d runs per set, %gs each\n", name, k, seconds)
		fmt.Printf("%-18s %12s %8s %12s %8s %9s %7s  %s\n", "metric", "median A", "IQR% A", "median B", "IQR% B", "B vs A", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			a, b := values(sets[0], m.Name), values(sets[1], m.Name)
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "B WORSE THAN BOUND"
			case m.Name != "setup_s" && (iqr(a) > m.Bound/3 || iqr(b) > m.Bound/3):
				verdict = "spread above bound/3"
			}
			fmt.Printf("%-18s %12.5g %8.2f %12.5g %8.2f %+8.2f%% %6.0f%%  %s\n",
				m.Name, ma, 100*iqr(a), mb, 100*iqr(b), 100*worse, 100*m.Bound, verdict)
		}
		for _, f := range modeFlags(append(sets[0], sets[1]...)) {
			fmt.Println("  flag:", f)
		}
	}
	return nil
}

func runOnce(exe, name string, seed int64, seconds float64) (runRecord, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return runRecord{}, err
	}
	return parseRun(stdout.String())
}

// parseRun reads a run's op_ms line and its final JSON result line.
func parseRun(stdout string) (runRecord, error) {
	var r runRecord
	var last string
	sc := bufio.NewScanner(strings.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "op_ms "); ok {
			if err := json.Unmarshal([]byte(rest), &r.opMS); err != nil {
				return r, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	r.line = last
	if err := json.Unmarshal([]byte(last), &r.out); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	if !r.out.Correct {
		return r, fmt.Errorf("run reported incorrect output: %s", last)
	}
	return r, nil
}

func values(runs []runRecord, name string) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.out.Metrics[name].Value)
	}
	return v
}

// iqr is the distance between the first and third quartile as a share of
// the median, with quartiles computed as Python's statistics.quantiles(n=4)
// does (the "exclusive" method).
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(0.75)-q(0.25)) / math.Abs(m)
}

// modeGap is the jump between neighbouring sorted op costs that counts as
// a gap between two op-cost modes.
const modeGap = 1.5

// modeFlags reports the runs whose ops are too short to time reliably, or
// whose median or tail rank sits at a gap between two op-cost modes.
func modeFlags(runs []runRecord) []string {
	var flags []string
	short, gapP50, gapTail := 0, 0, 0
	for _, r := range runs {
		s := append([]float64(nil), r.opMS...)
		sort.Float64s(s)
		if len(s) == 0 {
			continue
		}
		if median(s) < 100 {
			short++
		}
		mid := (len(s) - 1) / 2
		if atGap(s, mid) {
			gapP50++
		}
		if tail := len(s) - 11; tail >= 0 && atGap(s, tail) {
			gapTail++
		}
	}
	if short > 0 {
		flags = append(flags, fmt.Sprintf("%d runs have a median op under 100 ms: timer and GC jitter dominate", short))
	}
	if gapP50 > 0 {
		flags = append(flags, fmt.Sprintf("%d runs have op_p50_ms at a gap between op-cost modes", gapP50))
	}
	if gapTail > 0 {
		flags = append(flags, fmt.Sprintf("%d runs have op_tail_ms at a gap between op-cost modes", gapTail))
	}
	return flags
}

// atGap reports whether sorted position i has a neighbour more than modeGap
// times apart.
func atGap(s []float64, i int) bool {
	if i > 0 && s[i] > modeGap*s[i-1] {
		return true
	}
	return i+1 < len(s) && s[i+1] > modeGap*s[i]
}
