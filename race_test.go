//go:build race

package minup

// raceEnabled reports a -race build: the race detector adds allocations,
// so allocation gates skip under it.
const raceEnabled = true
