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

// Push extends buf by one element and returns the extended slice with a
// pointer to the new element. Within buf's capacity the element is the one
// an earlier, longer use left there, so the buffers it owns (a node set's
// bitmap) are reused; callers reset what they read. The pointer is valid
// until the next Push.
//
//alloc:amortized grow-on-demand arena helper; allocates only while a pooled slice warms up to its workload
func Push[T any](buf []T) ([]T, *T) {
	k := len(buf)
	if k < cap(buf) {
		buf = buf[:k+1]
	} else {
		var zero T
		buf = append(buf, zero)
	}
	return buf, &buf[k]
}
