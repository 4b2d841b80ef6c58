//go:build race

package experiments

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
