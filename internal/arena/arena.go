// Package arena holds the grow-only buffer helper behind the reusable
// scratch of the explorers and the scheduling kernel (DESIGN.md §13).
package arena

// Grow returns buf resized to n, reusing its backing array when it is large
// enough and allocating only while the buffer warms up to its workload.
// Contents are unspecified; callers overwrite every element they read.
//
//alloc:amortized grow-on-demand arena helper; allocates only while a reusable buffer warms up to its workload
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
