package fleet

import (
	"crypto/sha256"
	"testing"

	"deep/internal/sim"
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

// BenchmarkPlacementCacheParallel times warm placement-cache hits from
// GOMAXPROCS goroutines at once (run it at -cpu 1,2,8): 64 hot keys, every
// Get a hit. It measures what concurrent hits cost each other — the
// cache's locks and the lines they write.
func BenchmarkPlacementCacheParallel(b *testing.B) {
	const hot = 64
	c := newPlacementCache(DefaultCacheSize)
	keys := make([]cacheKey, hot)
	v := NewPlacementView(sim.Placement{"m": {Device: "d", Registry: "r"}})
	for i := range keys {
		keys[i] = cacheKey{app: sha256.Sum256([]byte{byte(i)})}
		c.PutView(keys[i], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if c.Get(keys[i%hot]) == nil {
				b.Error("a hot key missed")
				return
			}
		}
	})
}
