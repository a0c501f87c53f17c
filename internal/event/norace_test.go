//go:build !race

package event

// raceEnabled reports a -race build, under which sync.Pool drops a
// random quarter of its puts.
const raceEnabled = false
