package wire

import "deep/internal/dag"

// SetHash replaces the interner's key hash, which sees at most InternKeyLen
// bytes of a body, so tests can force distinct bodies onto one key.
func (in *Interner) SetHash(h func([]byte) uint64) { in.hash = h }

// ShareSeeds makes in hash keys and whole bodies as from does, so two
// tables fed the same bodies in the same order admit the same ones.
func (in *Interner) ShareSeeds(from *Interner) { in.hash, in.seed = from.hash, from.seed }

// Interner bounds, for tests that probe them.
const (
	InternMaxBody = internMaxBody
	InternKeyLen  = internKeyLen
	InternWays    = internWays
)

// Held returns the body the table keeps for these exact bytes, if it holds
// them, without counting a hit or marking the entry used.
func (in *Interner) Held(body []byte) (string, bool) {
	key := in.hash(body[:min(len(body), internKeyLen)])
	sh := &in.shards[key%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for e := sh.byKey[key]; e != nil; e = e.next {
		if e.body == string(body) {
			return e.body, true
		}
	}
	return "", false
}

// ProbeHit reports whether ItemApp answers item from the entry its scanner
// found at the cursor, without looking the table up.
func ProbeHit(item DeployItem) bool { return item.held() != nil }

// ScanApp is the app-spec scanner an interner miss tries first.
var ScanApp = scanApp

// AppScratch is the pooled scratch an app decode builds in.
type AppScratch = appBuild

func NewAppScratch() *AppScratch { return newAppBuild() }

// ScanAppWith and BuildWith are scanApp and AppSpec.App on a given scratch,
// for tests that inspect what the scratch holds afterwards.
func ScanAppWith(ab *AppScratch, body []byte) (*dag.App, string, bool) { return ab.scan(body) }

func BuildWith(ab *AppScratch, s *AppSpec) (*dag.App, error) { return ab.spec(s) }

// ItemBuilt returns the app a table's scanner built from an item where it
// walked the item's spec, with the text the app's strings are cut from,
// and whether the walk declined the spec instead.
func ItemBuilt(item DeployItem) (app *dag.App, text string, declined bool) {
	return item.built, item.text, item.declined
}
