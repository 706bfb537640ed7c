//go:build !race

package wire_test

const raceEnabled = false
