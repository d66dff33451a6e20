//go:build race

package shard

// raceEnabled: under the race detector sync.Pool drops a quarter of all Puts
// on purpose, so "a warm request allocates no fan-out state" is not a
// property to pin.
const raceEnabled = true
