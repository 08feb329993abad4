//go:build race

package eval

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of what it is given.
const raceEnabled = true
