//go:build !race

package scenario

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random on purpose.
const raceEnabled = false
