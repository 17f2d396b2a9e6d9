//go:build race

package query

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random: allocation counts through a pool are not pinned there.
const raceEnabled = true
