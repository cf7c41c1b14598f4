//go:build !race

package unfolding

const raceEnabled = false
