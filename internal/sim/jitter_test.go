package sim

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/dag"
	"deep/internal/units"
)

// referenceFactor is the historical fmt.Fprintf + hash/fnv implementation
// the allocation-free factor replaced; the produced factors must stay
// bit-identical.
func referenceFactor(seed int64, width float64, app, ms, phase string) float64 {
	if width == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s", seed, app, ms, phase)
	u := float64(h.Sum64()%1_000_003) / 1_000_003.0
	return 1 - width + 2*width*u
}

// TestJitterFactorBitIdentical drives the executor's factor — the seed's
// FNV-1a state continued over an "|app|ms|phase" tag — against the
// reference, over names with the separator in them, the empty app name,
// seeds of either sign up to ±9e18 and width 0.
func TestJitterFactorBitIdentical(t *testing.T) {
	apps := []string{"video", "text", "app|with|pipes", ""}
	mss := []string{"encode", "ocr", "a"}
	phases := []string{"deploy", "transfer", "process"}
	seeds := []int64{0, 1, -1, 42, -9000000000000000000, 9000000000000000000}
	widths := []float64{0, 0.02, 0.5, 1.5}
	for _, app := range apps {
		for _, ms := range mss {
			for _, phase := range phases {
				tag := []byte("|" + app + "|" + ms + "|" + phase)
				for _, seed := range seeds {
					var digits [20]byte
					seedH := fnvAdd(fnvOffset64, strconv.AppendInt(digits[:0], seed, 10))
					for _, width := range widths {
						got := jitterFactor(seedH, tag, width)
						want := referenceFactor(seed, width, app, ms, phase)
						if got != want {
							t.Fatalf("factor(%d,%v,%q,%q,%q) = %v, reference %v",
								seed, width, app, ms, phase, got, want)
						}
					}
				}
			}
		}
	}
}

// TestJitterFactorMatchesCompiledPath pins the tags the app table
// precomputes per phase and microservice id against the reference, so the
// executor's compiled path draws the same factors as the historical one.
func TestJitterFactorMatchesCompiledPath(t *testing.T) {
	const width = 0.07
	mss := []string{"encode", "detect"}
	app := dag.NewApp("corpus")
	for _, ms := range mss {
		if err := app.AddMicroservice(&dag.Microservice{Name: ms, ImageSize: units.MB}); err != nil {
			t.Fatal(err)
		}
	}
	at := appgraph.Compile(app)
	tags := at.PhaseTags()
	phases := [...]string{phaseDeploy: "deploy", phaseTransfer: "transfer", phaseProcess: "process"}
	for _, seed := range []int64{0, 5, -31, 1 << 40} {
		var digits [20]byte
		seedH := fnvAdd(fnvOffset64, strconv.AppendInt(digits[:0], seed, 10))
		for _, ms := range mss {
			id, ok := at.MSID(ms)
			if !ok {
				t.Fatalf("no id for %q", ms)
			}
			for phase, phaseName := range phases {
				got := jitterFactor(seedH, tags[phase][id], width)
				if want := referenceFactor(seed, width, "corpus", ms, phaseName); got != want {
					t.Fatalf("compiled factor %v != reference %v for seed %d %s/%s", got, want, seed, ms, phaseName)
				}
			}
		}
	}
}

func TestJitterFactorAllocationFree(t *testing.T) {
	var sink float64
	tag := []byte("|video|encode|process")
	if allocs := testing.AllocsPerRun(200, func() {
		sink += jitterFactor(12345, tag, 0.05)
	}); allocs != 0 {
		t.Fatalf("jitterFactor allocates %v times per call", allocs)
	}
	_ = sink
}
