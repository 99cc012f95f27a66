//go:build race

package pml

// raceEnabled reports a -race build, where sync.Pool drops a quarter of all
// Puts on purpose and allocation counts through the arena mean nothing.
const raceEnabled = true
