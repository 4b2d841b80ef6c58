package bench

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestSharedArtifacts pins Get's sharing: one *Benchmark per (name, opt),
// one profile, computed once however many goroutines ask first, equal to a
// fresh Run, and one DFG per executed block in ascending block order, of
// which HotDFGs hands out the hottest in HotBlocks order.
func TestSharedArtifacts(t *testing.T) {
	a, err := Get("adpcm", "O3")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Get("adpcm", "O3")
	o0, _ := Get("adpcm", "O0")
	if a != b || a == o0 {
		t.Fatal("Get must return one shared Benchmark per (name, opt)")
	}
	profs := make([]any, 8)
	var wg sync.WaitGroup
	for i := range profs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := a.Profile()
			if err != nil {
				t.Error(err)
			}
			profs[i] = p
		}()
	}
	wg.Wait()
	for _, p := range profs[1:] {
		if p != profs[0] {
			t.Fatal("concurrent Profile calls returned different profiles")
		}
	}
	prof, _ := a.Profile()
	fresh, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, fresh) {
		t.Fatal("shared profile differs from a fresh Run")
	}
	ds, err := a.DFGs()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := a.DFGs()
	var executed []int
	for bi, c := range prof.BlockCounts {
		if c > 0 {
			executed = append(executed, bi)
		}
	}
	if len(ds) != len(executed) || &ds[0] != &again[0] {
		t.Fatalf("%d DFGs for %d executed blocks, or a rebuilt slice", len(ds), len(executed))
	}
	for i, d := range ds {
		if d.BlockIndex != executed[i] || d.Weight != prof.BlockCounts[d.BlockIndex] {
			t.Fatalf("DFG %d is block %d weight %d, want block %d weight %d",
				i, d.BlockIndex, d.Weight, executed[i], prof.BlockCounts[executed[i]])
		}
	}
	hot, err := a.HotDFGs(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, bi := range prof.HotBlocks(a.Prog, 3) {
		if hot[i] != ds[slices.Index(executed, bi)] {
			t.Fatalf("HotDFGs[%d] is not the shared DFG of block %d", i, bi)
		}
	}
}
