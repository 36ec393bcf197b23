//go:build !race

package main

// raceEnabled reports a -race build: the race detector adds allocations,
// so allocation gates skip under it.
const raceEnabled = false
