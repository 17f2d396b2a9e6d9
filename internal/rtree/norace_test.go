//go:build !race

package rtree

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
