package baseline

// Arena helpers for the baseline explorer's reusable scratch, mirroring
// internal/core's (DESIGN.md §13): each returns a slice of length n backed
// by buf's array when it is large enough, allocating only while the arena
// warms up to its workload. Contents are unspecified; callers overwrite
// every element they read.

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
