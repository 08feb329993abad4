//go:build !race

package eval

const raceEnabled = false
