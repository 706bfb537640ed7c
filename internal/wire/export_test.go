package wire

// SetHash replaces the interner's body hash so tests can force distinct
// bodies onto one key.
func (in *Interner) SetHash(h func([]byte) uint64) { in.hash = h }

// Interner bounds, for tests that probe them.
const (
	InternMaxBody = internMaxBody
	InternCap     = internShards * internShardCap
)

// ScanApp is the app-spec scanner an interner miss tries first.
var ScanApp = scanApp
