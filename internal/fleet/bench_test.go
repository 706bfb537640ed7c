package fleet

import (
	"testing"

	"deep/internal/workload"
)

// keySink keeps the benchmarked key build from being optimized away.
var keySink cacheKey

// BenchmarkFingerprintPerRequest times a request's cache-key build: the
// epoch's cluster key and the app's stored digest.
func BenchmarkFingerprintPerRequest(b *testing.B) {
	app := workload.TextProcessing()
	st := &churnState{}
	for i := 0; i < b.N; i++ {
		keySink = cacheKey{cluster: st.key, app: app.Digest()}
	}
}
