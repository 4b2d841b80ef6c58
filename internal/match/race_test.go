//go:build race

package match

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops items at random, so pooled search buffers are now and then
// allocated afresh.
const raceEnabled = true
