//go:build !race

package compress

const raceEnabled = false
