package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/workload"
)

// isPureNash is the per-cell definition of a pure Nash equilibrium of the
// bimatrix (a, b), a the row player's payoffs and b the column player's:
// no entry of a's column j beats a[i][j], and no entry of b's row i beats
// b[i][j], by more than 1e-12. NaN compares false both ways, so it beats
// nothing and nothing beats it.
func isPureNash(a, b [][]float64, i, j int) bool {
	for r := range a {
		if a[r][j] > a[i][j]+1e-12 {
			return false
		}
	}
	for c := range b[i] {
		if b[i][c] > b[i][j]+1e-12 {
			return false
		}
	}
	return true
}

// bestPureCells is the definition every stage kernel and the legacy port
// are held to: the cells isPureNash accepts, offered to PureSelection in
// row-major order. ok is false when the game has no pure equilibrium.
func bestPureCells(a, b [][]float64) (PureProfile, bool) {
	var sel PureSelection
	for i := range a {
		for j := range a[i] {
			if isPureNash(a, b, i, j) {
				sel.Offer(PureProfile{Row: i, Col: j}, a[i][j], b[i][j])
			}
		}
	}
	return sel.Best, sel.OK
}

// TestBestPureCellsTextbookGames checks the definition on games whose
// equilibria are known: the prisoner's dilemma has (defect, defect) alone;
// the battle of the sexes has two of equal welfare, and the tie goes to the
// row player's favourite; a coordination game picks its best-paid cell;
// matching pennies has none; and the common-interest game whose
// mixed-strategy regret read NaN, and so 0 at (0, 0), has one at (1, 1).
func TestBestPureCellsTextbookGames(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		a, b [][]float64
		want PureProfile
		ok   bool
	}{
		{"PrisonersDilemma", [][]float64{{3, 0}, {5, 1}}, [][]float64{{3, 5}, {0, 1}}, PureProfile{1, 1}, true},
		{"BattleOfTheSexes", [][]float64{{3, 0}, {0, 2}}, [][]float64{{2, 0}, {0, 3}}, PureProfile{0, 0}, true},
		{"Coordination", [][]float64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}, [][]float64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}, PureProfile{2, 2}, true},
		{"MatchingPennies", [][]float64{{1, -1}, {-1, 1}}, [][]float64{{-1, 1}, {1, -1}}, PureProfile{}, false},
		{"UnreachableCell", [][]float64{{-10, -inf}, {-5, -1}}, [][]float64{{-10, -inf}, {-5, -1}}, PureProfile{1, 1}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, ok := bestPureCells(c.a, c.b); ok != c.ok || (ok && got != c.want) {
				t.Errorf("bestPureCells = (%v, %v), want (%v, %v)", got, ok, c.want, c.ok)
			}
		})
	}
}

// stageRegret is the n-player equilibrium certificate of one stage: the
// largest energy saving one member can find by moving alone while the others
// stay at cur. It prices each member's row rows[k] (its canonical row, so an
// answer played over reduced rows is checked against the full game) with
// EnergyRow against the other members, and compares every price with the
// current option's. Savings come from comparison, not from products of
// strategies with payoffs: a member on a +Inf option saves +Inf by moving to
// any finite one, and nothing by moving to another +Inf one. A NaN price
// anywhere returns NaN, which fails every regret bound. inf reports whether
// any price was +Inf.
func stageRegret(st *costmodel.State, stage []int32, rows [][]costmodel.Option, cur []costmodel.Option) (regret float64, inf bool) {
	for k, ms := range stage {
		prices := make([]float64, 1+len(rows[k]))
		st.EnergyRow(ms, cur[k:k+1], stage, cur, prices[:1])
		st.EnergyRow(ms, rows[k], stage, cur, prices[1:])
		now := prices[0]
		for _, p := range prices {
			switch {
			case math.IsNaN(p):
				return math.NaN(), inf
			case math.IsInf(p, 1):
				inf = true
			case p < now:
				regret = max(regret, now-p)
			}
		}
	}
	return regret, inf
}

// TestPureSelectionTieRule pins the one tie rule directly: a later offer
// displaces the incumbent when its welfare (the sum of its two payoffs) is
// more than 1e-12 higher, or within 1e-12 with a row payoff more than 1e-12
// higher; otherwise the first offer stays. ±Inf and NaN offers included.
func TestPureSelectionTieRule(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	type offer [2]float64 // row and column payoffs
	cases := []struct {
		name   string
		offers []offer
		want   int
	}{
		{"welfare higher by 1", []offer{{1, 1}, {2, 1}}, 1},
		{"welfare higher by 2e-12", []offer{{0, 0}, {0, 2e-12}}, 1},
		{"welfare higher by 1e-12, row equal", []offer{{0, 0}, {0, 1e-12}}, 0},
		{"welfare higher by 1e-12, row higher by 2e-12", []offer{{0, 0}, {2e-12, -1e-12}}, 1},
		{"welfare equal, row higher by 2e-12", []offer{{0, 0}, {2e-12, -2e-12}}, 1},
		{"welfare equal, row higher by 1e-12", []offer{{0, 0}, {1e-12, -1e-12}}, 0},
		{"welfare equal, row lower", []offer{{1, 0}, {0, 1}}, 0},
		{"welfare lower by 2e-12, row higher", []offer{{0, 0}, {1, -1 - 2e-12}}, 0},
		{"welfare lower", []offer{{2, 2}, {3, 0}}, 0},
		{"identical offers", []offer{{1, 2}, {1, 2}, {1, 2}}, 0},
		{"drift inside the window is measured from the incumbent", []offer{{0, 0}, {0, 8e-13}, {0, 1.6e-12}}, 2},
		{"finite displaces -Inf", []offer{{-inf, 0}, {-5, -1}}, 1},
		{"-Inf never displaces", []offer{{-5, -1}, {-inf, 0}}, 0},
		{"-Inf ties -Inf", []offer{{-inf, 0}, {-inf, 1}}, 0},
		{"+Inf displaces finite", []offer{{1, 1}, {inf, 0}}, 1},
		{"+Inf ties +Inf", []offer{{inf, 0}, {inf, inf}}, 0},
		{"NaN never displaces", []offer{{0, 0}, {nan, 1}}, 0},
		{"+Inf and -Inf sum to NaN", []offer{{0, 0}, {inf, -inf}}, 0},
		{"NaN is never displaced", []offer{{nan, 0}, {1, 1}, {inf, 0}}, 0},
	}
	for _, c := range cases {
		var sel PureSelection
		for i, o := range c.offers {
			sel.Offer(PureProfile{Row: i}, o[0], o[1])
		}
		if !sel.OK || sel.Best.Row != c.want {
			t.Errorf("%s: offers %v select %d, want %d", c.name, c.offers, sel.Best.Row, c.want)
		}
	}
	var empty PureSelection
	if empty.OK {
		t.Error("an empty selection reports a pick")
	}
}

// TestStageRegretSeesInfinitePrices: the certificate is not vacuous where a
// matrix product was. On the island cluster, every stage after the first
// has its upstreams committed off the island, so the island's options price
// at +Inf. In the first such solo stage, the member placed on the
// island has regret +Inf, where the mixed-strategy product read
// 0·-Inf = NaN and returned 0; placed on its dearest finite option, its
// regret is that price less the cheapest, each priced alone with Energy; on
// its cheapest, 0. In the first such pair stage, a member on the island
// gives the stage regret +Inf, whatever the other's saving.
func TestStageRegretSeesInfinitePrices(t *testing.T) {
	app, err := workload.Generate(workload.DefaultGeneratorConfig(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Compile(app, islandCluster(t))
	st := model.NewState()
	checked := map[int]bool{}
	for n, stage := range model.Stages() {
		rows := make([][]costmodel.Option, len(stage))
		cur := make([]costmodel.Option, len(stage))
		for k, ms := range stage {
			rows[k] = model.Options(ms)
			cur[k] = rows[k][slices.IndexFunc(rows[k], func(o costmodel.Option) bool {
				return model.Assignment(o).Device != "island"
			})]
		}
		if w := len(stage); n > 0 && w <= 2 && !checked[w] {
			checked[w] = true
			where := fmt.Sprintf("stage %d (%s, width %d)", n, model.MSName(stage[0]), w)
			island, cheap, dear := -1, -1, -1
			lo, hi := math.Inf(1), math.Inf(-1)
			for k, o := range rows[0] {
				e := st.Energy(stage[0], o, stage, cur)
				switch {
				case model.Assignment(o).Device == "island":
					if !math.IsInf(e, 1) {
						t.Fatalf("%s: island option %v prices %v, want +Inf", where, model.Assignment(o), e)
					}
					island = k
				case e < lo:
					lo, cheap = e, k
				}
				if e > hi && !math.IsInf(e, 1) {
					hi, dear = e, k
				}
			}
			if island < 0 || !(hi > lo) {
				t.Fatalf("%s: the fixture needs an island option and two finite prices", where)
			}
			cases := []struct {
				at   int
				want float64
			}{{island, math.Inf(1)}, {dear, hi - lo}, {cheap, 0}}
			if w == 2 {
				cases = cases[:1]
			}
			home := cur[0]
			for _, c := range cases {
				cur[0] = rows[0][c.at]
				if got, inf := stageRegret(st, stage, rows, cur); got != c.want || !inf {
					t.Errorf("%s: placed at %v: regret %v (+Inf seen %v), want %v", where,
						model.Assignment(cur[0]), got, inf, c.want)
				}
			}
			cur[0] = home
		}
		for k, ms := range stage {
			st.Commit(ms, cur[k])
		}
	}
	if !checked[1] || !checked[2] {
		t.Fatalf("checked stage widths %v; the fixture needs a solo and a pair stage after the first", checked)
	}
}

// TestEveryStageCertified checks the paper's claim on every stage DEEP plays
// over the equivalence corpus, the pair-game corpus (whose island cases
// price options at +Inf) and the cycling stage. It replays each pass's
// placement stage by stage: every solo, pair and converged best-response
// stage must have stageRegret at most 1e-9 over the canonical rows, so the
// twin reduction is checked against the full game. A best-response stage's
// convergence is learned by re-running the dynamics over its reduced rows,
// which must land where the pass did; the stages that did not settle are
// counted, and the count must be the passes' SolverStats.NonConverged.
func TestEveryStageCertified(t *testing.T) {
	app, cluster := workload.CyclingStage()
	cases := append(equivalenceCorpus(t), pairGameCorpus(t)...)
	cases = append(cases, corpusCase{name: "cycling", app: app, cluster: cluster})
	var solo, pair, wide, nonConverged, wantNonConverged, infinite int
	for _, c := range cases {
		model := c.model()
		p := NewPass(model)
		if err := NewDEEP().ScheduleInto(p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantNonConverged += p.Solver().NonConverged
		st := model.NewState()
		for _, stage := range model.Stages() {
			canonical := make([][]costmodel.Option, len(stage))
			cur := make([]costmodel.Option, len(stage))
			names := make([]string, len(stage))
			for k, ms := range stage {
				canonical[k], cur[k], names[k] = model.Options(ms), p.placed[ms], model.MSName(ms)
			}
			certify := true
			switch len(stage) {
			case 1:
				solo++
			case 2:
				pair++
			default:
				wide++
				rows := make([][]costmodel.Option, len(stage))
				st.StageRows(stage, rows, slices.Concat(canonical...))
				again := make([]costmodel.Option, len(stage))
				for k := range stage {
					again[k] = rows[k][0]
				}
				_, converged := bestResponse(st, stage, rows, again)
				if !slices.Equal(again, cur) {
					t.Fatalf("%s: stage %v: the dynamics re-run settle at %v, the pass placed %v", c.name, names, again, cur)
				}
				if !converged {
					nonConverged++
					certify = false
				}
			}
			if certify {
				r, inf := stageRegret(st, stage, canonical, cur)
				if inf {
					infinite++
				}
				if !(r <= 1e-9) {
					t.Errorf("%s: stage %v placed at %v has regret %g", c.name, names, cur, r)
				}
			}
			for k, ms := range stage {
				st.Commit(ms, cur[k])
			}
		}
	}
	if solo == 0 || pair == 0 || wide == 0 || infinite == 0 {
		t.Fatalf("certified %d solo, %d pair and %d wide stages, %d with +Inf prices; each must be above 0",
			solo, pair, wide, infinite)
	}
	if nonConverged != wantNonConverged || nonConverged == 0 {
		t.Errorf("%d best-response stages did not settle, the passes counted %d; the cycling stage must be one",
			nonConverged, wantNonConverged)
	}
	t.Logf("%d solo, %d pair, %d wide stages (%d not settled), %d with +Inf prices", solo, pair, wide, nonConverged, infinite)
}
