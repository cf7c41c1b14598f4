//go:build !race

package stg_test

const raceEnabled = false
