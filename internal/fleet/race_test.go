//go:build race

package fleet

// raceEnabled skips the allocation gates: the race detector allocates on its
// own.
const raceEnabled = true
