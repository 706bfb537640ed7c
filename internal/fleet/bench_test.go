package fleet

import (
	"testing"

	"deep/internal/workload"
)

func BenchmarkFingerprintCold(b *testing.B) {
	app := workload.TextProcessing()
	cluster := workload.Testbed()
	for i := 0; i < b.N; i++ {
		DigestCluster(cluster).Fingerprint(app, "deep")
	}
}

func BenchmarkFingerprintPerRequest(b *testing.B) {
	app := workload.TextProcessing()
	cd := DigestCluster(workload.Testbed())
	for i := 0; i < b.N; i++ {
		cd.Fingerprint(app, "deep")
	}
}
