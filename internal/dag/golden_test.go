package dag_test

import (
	"bufio"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"

	"deep/internal/dag"
	"deep/internal/workload"
)

// goldenApps are the apps testdata/digests.golden records, by label: the two
// case studies, the generator's default config for seeds 1–8, and one
// wider-stage config.
func goldenApps(t *testing.T) map[string]*dag.App {
	t.Helper()
	apps := map[string]*dag.App{
		"video": workload.VideoProcessing(),
		"text":  workload.TextProcessing(),
	}
	gen := func(label string, cfg workload.GeneratorConfig) {
		app, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps[label] = app
	}
	for seed := int64(1); seed <= 8; seed++ {
		gen("generated-16-seed-"+strconv.FormatInt(seed, 10), workload.DefaultGeneratorConfig(16, seed))
	}
	wide := workload.DefaultGeneratorConfig(16, 1)
	wide.StageWidth = 4
	gen("generated-16-seed-1-width-4", wide)
	return apps
}

// TestDigestGoldens pins the digest's record stream to recorded values, and
// with it the generator's draws: every cache key the fleet holds is one of
// these digests, so a change here invalidates all of them.
func TestDigestGoldens(t *testing.T) {
	f, err := os.Open("testdata/digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	apps := goldenApps(t)
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		label, want, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		app, ok := apps[label]
		if !ok {
			t.Errorf("golden %s names no app", label)
			continue
		}
		seen++
		if d := app.Digest(); hex.EncodeToString(d[:]) != want {
			t.Errorf("%s: digest %x, golden %s", label, d, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(apps) {
		t.Errorf("golden file covers %d of %d apps", seen, len(apps))
	}
}
