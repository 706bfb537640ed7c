//go:build race

package wire_test

// raceEnabled skips the allocation gates: the race detector allocates on its
// own.
const raceEnabled = true
