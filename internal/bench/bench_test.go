package bench

import (
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatTable1(rows)
	for _, frag := range []string{"sina88/vp-transcode", "dcloud2.itec.aau.at/aau/tp-retrieve", "5.78GB"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I missing %q", frag)
		}
	}
}

func TestTable2RangesOverlapPaper(t *testing.T) {
	rows, err := Table2(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Simulated EC ranges must overlap the published ranges (both
		// devices) — the calibration contract.
		if r.ECMedium.Max < r.Paper.ECMedMin || r.ECMedium.Min > r.Paper.ECMedMax {
			t.Errorf("%s/%s: EC medium %v does not overlap paper %v–%v",
				r.App, r.Name, r.ECMedium, r.Paper.ECMedMin, r.Paper.ECMedMax)
		}
		if r.ECSmall.Max < r.Paper.ECSmallMin || r.ECSmall.Min > r.Paper.ECSmallMax {
			t.Errorf("%s/%s: EC small %v does not overlap paper %v–%v",
				r.App, r.Name, r.ECSmall, r.Paper.ECSmallMin, r.Paper.ECSmallMax)
		}
		// Tp must sit inside the published range (it is calibrated).
		if r.Tp.Max < r.Paper.TpMin || r.Tp.Min > r.Paper.TpMax {
			t.Errorf("%s/%s: Tp %v vs paper %v–%v", r.App, r.Name, r.Tp, r.Paper.TpMin, r.Paper.TpMax)
		}
	}
	if out := FormatTable2(rows); !strings.Contains(out, "transcode") {
		t.Error("format lost rows")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.MatchesPaper {
			t.Errorf("%s: placement deviates from Table III: %v", r.App, r.Placement)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "83%") {
		t.Errorf("video row should report 83%% hub on medium:\n%s", out)
	}
	if !strings.Contains(out, "67%") && !strings.Contains(out, "66%") {
		t.Errorf("text row should report ≈66%% regional on small:\n%s", out)
	}
}

func TestFig3aTrainingDominates(t *testing.T) {
	rows, err := Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string][]Fig3aRow{}
	for _, r := range rows {
		byApp[r.App] = append(byApp[r.App], r)
	}
	for app, rs := range byApp {
		var maxName string
		var maxE float64
		for _, r := range rs {
			if float64(r.Energy) > maxE {
				maxE, maxName = float64(r.Energy), r.Name
			}
		}
		if maxName != "ha-train" {
			t.Errorf("%s: dominant microservice = %s, want ha-train", app, maxName)
		}
	}
	if out := FormatFig3a(rows); !strings.Contains(out, "#") {
		t.Error("bar chart empty")
	}
}

func TestFig3bOrdering(t *testing.T) {
	rows, err := Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Method == "deep" {
			continue
		}
		if r.DeltaVsDEEP < 0 {
			t.Errorf("%s/%s: beats DEEP by %.1f J", r.App, r.Method, -r.DeltaVsDEEP)
		}
		// The paper's margins are tens of joules — sub-1.5% of multi-kJ
		// totals. Keep the same order of magnitude.
		if frac := r.DeltaVsDEEP / float64(r.Energy); frac > 0.015 {
			t.Errorf("%s/%s: margin %.2f%% too large for the paper's shape", r.App, r.Method, 100*frac)
		}
	}
	if out := FormatFig3b(rows); !strings.Contains(out, "exclusive-hub") {
		t.Error("format lost methods")
	}
}

func TestSchedulerComparison(t *testing.T) {
	rows, err := SchedulerComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 7 schedulers × 2 apps
		t.Fatalf("rows = %d", len(rows))
	}
	// DEEP must be the energy minimum per app.
	best := map[string]float64{}
	deep := map[string]float64{}
	for _, r := range rows {
		e := float64(r.Energy)
		if b, ok := best[r.App]; !ok || e < b {
			best[r.App] = e
		}
		if r.Method == "deep" {
			deep[r.App] = e
		}
	}
	for app := range deep {
		if deep[app] > best[app]*1.0001 {
			t.Errorf("%s: deep %.1f J is not minimal (best %.1f J)", app, deep[app], best[app])
		}
	}
	_ = FormatSchedulerComparison(rows)
}

func TestBandwidthSweepCrossover(t *testing.T) {
	rows, err := BandwidthSweep("text", []float64{0.25, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With a much faster regional registry, exclusively-regional must beat
	// exclusively-hub; with a much slower one it must lose.
	if rows[0].RegionalBeatsHub {
		t.Error("0.25× regional bandwidth should lose to the hub")
	}
	if !rows[2].RegionalBeatsHub {
		t.Error("4× regional bandwidth should beat the hub")
	}
	// DEEP never loses to either exclusive method at any point.
	for _, r := range rows {
		if float64(r.DeepEnergy) > float64(r.RegionalEnergy)+1e-6 || float64(r.DeepEnergy) > float64(r.HubEnergy)+1e-6 {
			t.Errorf("DEEP not optimal at %v: %+v", r.RegionalBW, r)
		}
	}
	_ = FormatBandwidthSweep(rows)
}

func TestCacheAblation(t *testing.T) {
	rows, err := CacheAblation("video", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].BytesCold == 0 {
		t.Error("cold run pulled nothing")
	}
	for _, r := range rows[1:] {
		if r.BytesCold != 0 || r.DeployTime != 0 {
			t.Errorf("warm run %d still pulled %v over %.1fs", r.Run, r.BytesCold, r.DeployTime)
		}
	}
	_ = FormatCacheAblation(rows)
}

// TestContentionAblation: blind greedy never beats the Nash scheduler, and
// the ablation can tell them apart — at least one row shows a penalty, so
// the first check is not vacuous.
func TestContentionAblation(t *testing.T) {
	rows, err := ContentionAblation()
	if err != nil {
		t.Fatal(err)
	}
	table := FormatContentionAblation(rows)
	penalized := 0
	for _, r := range rows {
		if r.PenaltyOfBlind < -0.01 {
			t.Errorf("%s on %s: congestion-blind greedy beat the Nash scheduler by %.2f%%", r.App, r.Cluster, -r.PenaltyOfBlind)
		}
		if r.PenaltyOfBlind > 0 {
			penalized++
		}
	}
	if penalized == 0 {
		t.Errorf("no row shows a penalty for blind greedy: the ablation cannot fail\n%s", table)
	}
}
