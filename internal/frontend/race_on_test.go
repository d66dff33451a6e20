//go:build race

package frontend

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// on purpose, so "a warm request allocates no column" is not a property to
// pin.
const raceEnabled = true
