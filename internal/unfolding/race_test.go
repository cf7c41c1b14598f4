//go:build race

package unfolding

// raceEnabled reports that the race detector is on; it changes what an
// operation allocates, so allocation bounds do not hold under it.
const raceEnabled = true
