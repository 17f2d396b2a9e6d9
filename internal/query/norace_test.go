//go:build !race

package query

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
