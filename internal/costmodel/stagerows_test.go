package costmodel

import (
	"slices"
	"testing"

	"deep/internal/workload"
)

// stageRowsScratch returns row slots and a backing big enough for the
// stage's canonical rows end to end.
func stageRowsScratch(m *Model, stage []int32) ([][]Option, []Option) {
	n := 0
	for _, ms := range stage {
		n += len(m.Options(ms))
	}
	return make([][]Option, len(stage)), make([]Option, n)
}

// TestStageRowsKeepUpstreamsAndTwins pins which devices a stage's reduced
// rows keep on ScaledTestbed(4) (medium-00…03 are devices 0-3, small-00…03
// devices 4-7): the device hosting a committed upstream, wherever it sits
// in its class, plus the first len(stage) other devices of each twin class;
// each row is its canonical row restricted to those devices, in order.
func TestStageRowsKeepUpstreamsAndTwins(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig(9, 3)
	cfg.StageWidth = 3
	app, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := Compile(app, workload.ScaledTestbed(4))
	st := m.NewState()
	checked := 0
	for i, stage := range m.Stages() {
		rows, buf := stageRowsScratch(m, stage)
		st.StageRows(stage, rows, buf)
		keep := map[int32]bool{}
		for _, ms := range stage {
			for _, in := range m.inputs[ms] {
				keep[st.placed[in.MS]] = true // the stage before went to medium-03
			}
		}
		if i > 0 && !keep[3] {
			t.Fatalf("stage %d has no upstream on medium-03", i)
		}
		for _, class := range [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}} {
			kept := 0
			for _, d := range class {
				if !keep[d] && kept < len(stage) {
					keep[d] = true
					kept++
				}
			}
		}
		for k, ms := range stage {
			var want []Option
			for _, o := range m.Options(ms) {
				if keep[o.Device] {
					want = append(want, o)
				}
			}
			if !slices.Equal(rows[k], want) {
				t.Fatalf("stage %d, %s: reduced row %v, want %v", i, m.MSName(ms), rows[k], want)
			}
			checked++
		}
		for _, ms := range stage {
			st.Commit(ms, Option{Device: 3})
		}
	}
	if len(m.Stages()) < 3 || checked < 5 {
		t.Fatalf("fixture too small: %d stages, %d rows", len(m.Stages()), checked)
	}
}

// TestStageRowsWithoutTwinsAreCanonical: on a cluster without twins, and on
// a stage that drops nothing, the rows are the model's own slices.
func TestStageRowsWithoutTwinsAreCanonical(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"testbed", Compile(workload.VideoProcessing(), workload.Testbed())},
		{"scaled1", Compile(workload.VideoProcessing(), workload.ScaledTestbed(1))},
	} {
		st := tc.m.NewState()
		for _, stage := range tc.m.Stages() {
			rows, buf := stageRowsScratch(tc.m, stage)
			st.StageRows(stage, rows, buf)
			for k, ms := range stage {
				if want := tc.m.Options(ms); len(rows[k]) != len(want) || &rows[k][0] != &want[0] {
					t.Fatalf("%s: %s's row %v is not the model's own %v", tc.name, tc.m.MSName(ms), rows[k], want)
				}
			}
		}
	}
}

// TestStageRowsAllocationFree: reducing a stage's rows allocates nothing.
func TestStageRowsAllocationFree(t *testing.T) {
	app, err := workload.Generate(workload.DefaultGeneratorConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := Compile(app, workload.ScaledTestbed(12))
	st := m.NewState()
	stage := m.Stages()[1]
	rows, buf := stageRowsScratch(m, stage)
	if allocs := testing.AllocsPerRun(100, func() { st.StageRows(stage, rows, buf) }); allocs != 0 {
		t.Fatalf("StageRows allocates %.1f objects per call", allocs)
	}
	if len(rows[0]) >= len(m.Options(stage[0])) {
		t.Fatalf("stage %v dropped nothing; the check must run the reduction", stage)
	}
}
