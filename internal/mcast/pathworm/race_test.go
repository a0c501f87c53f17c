//go:build race

package pathworm

// raceEnabled reports a -race build, under which sync.Pool drops a
// random quarter of its puts.
const raceEnabled = true
