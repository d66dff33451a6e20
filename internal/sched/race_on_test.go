//go:build race

package sched

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// on purpose, so "a warm run allocates nothing" is not a property to pin.
const raceEnabled = true
