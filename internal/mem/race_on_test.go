//go:build race

package mem

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// on purpose, so a slab coming back from its pool is not a property to pin.
const raceEnabled = true
