package cluster

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// BenchmarkFleetJob runs one distributed block job per op, the perfbench
// fleet-jobs spec in process: adpcm/O3's hottest block on the 2-issue 4/2
// machine, core.DefaultParams with one worker per shard, two shards, two
// loopback workers. Allocations count every goroutine of the process —
// coordinator, workers and their HTTP traffic. Untraced is the job without
// a tracer, which must ship no spans (DESIGN.md §16); Traced gives each job
// a fresh tracer and merges the workers' spans into it.
func BenchmarkFleetJob(b *testing.B) {
	p := core.DefaultParams()
	p.Seed = 1
	p.Workers = 1
	wl := Workload{
		Name:     "bench",
		Bench:    "adpcm",
		OptLevel: "O3",
		Hot:      1,
		Machine:  MachineSpec{Issue: 2, ReadPorts: 4, WritePorts: 2},
		Params:   p,
	}
	for _, traced := range []bool{false, true} {
		name := "Untraced"
		if traced {
			name = "Traced"
		}
		b.Run(name, func(b *testing.B) {
			coord := startFleet(b, nil, nil, "a", "b")
			opts := BlockOptions{Shards: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if traced {
					opts.Trace = obs.NewTracer()
				}
				if _, err := coord.ExploreBlock(context.Background(), wl, 0, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
