package parallel

import (
	"sync"
	"testing"
)

// TestScratchPoolReuse pins the free-list semantics: Get prefers the most
// recently released item (LIFO, keeping the hottest arenas in use), never
// discards items, and builds fresh ones only when the list is empty.
func TestScratchPoolReuse(t *testing.T) {
	built := 0
	p := ScratchPool{New: func() any { built++; return &built }}
	a := p.Get()
	b := p.Get()
	if built != 2 {
		t.Fatalf("built %d items, want 2", built)
	}
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatal("Get did not return the most recently released item")
	}
	if got := p.Get(); got != a {
		t.Fatal("Get did not drain the free list in LIFO order")
	}
	if built != 2 {
		t.Fatalf("reuse built a fresh item (%d total)", built)
	}
}

// TestScratchPoolConcurrent hammers the pool from many goroutines; run under
// -race via `make race` this is the regression test for the free-list lock.
func TestScratchPoolConcurrent(t *testing.T) {
	p := ScratchPool{New: func() any { return new(int) }}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := p.Get().(*int)
				*v++
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		v, ok := p.Get().(*int)
		if !ok || v == nil {
			break
		}
		total += *v
		if len(p.free) == 0 {
			break
		}
	}
	if total != 8000 {
		t.Fatalf("lost increments: %d, want 8000", total)
	}
}
