//go:build race

package register

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
