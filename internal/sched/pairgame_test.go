package sched

import (
	"fmt"
	"math"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/device"
	"deep/internal/game"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/workload"
)

// pairGameCorpus is the set of (app, cluster) shapes the pair-game pins walk:
// the paper's case studies on the testbed, the front-door benchmark's
// cold_unique shape (16-microservice generated apps, 24 devices, 2 304-cell
// games), a cluster where no registry uplink is shared (every strategy has
// one price), one with a second shared registry that only routes to the
// medium devices (ragged option rows, two contention domains), and one with
// a device no other device routes to (infinite transfer times, so -Inf
// payoffs).
func pairGameCorpus(t *testing.T) []corpusCase {
	t.Helper()
	synthetic := func(n int, seed int64) corpusCase {
		app, err := workload.Generate(workload.DefaultGeneratorConfig(n, seed))
		if err != nil {
			t.Fatalf("generate size=%d seed=%d: %v", n, seed, err)
		}
		return corpusCase{name: fmt.Sprintf("synthetic%d-%d", n, seed), app: app}
	}
	on := func(c corpusCase, name string, cluster *sim.Cluster) corpusCase {
		c.name += "/" + name
		c.cluster = cluster
		return c
	}

	unshared := workload.ScaledTestbed(4)
	for i := range unshared.Registries {
		unshared.Registries[i].Shared = false
	}

	mirrored := workload.ScaledTestbed(4)
	mirrored.Topology.AddNode("mirror-node")
	for i := 0; i < 4; i++ {
		if err := mirrored.Topology.AddLink(netsim.Link{
			From: "mirror-node", To: fmt.Sprintf("%s-%02d", workload.MediumNode, i),
			BW: workload.RegionalMediumBW / 2, RTT: workload.RegionalSetupTime, SharedCapacity: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mirrored.Registries = append(mirrored.Registries, sim.RegistryInfo{Name: "mirror", Node: "mirror-node", Shared: true})

	// An island device: registries and the source reach it, no other device
	// does, so a dataflow from anywhere else never arrives.
	severed := workload.ScaledTestbed(2)
	severed.Topology.AddNode("island")
	for _, l := range []netsim.Link{
		{From: workload.HubNode, To: "island", BW: workload.HubMediumBW, RTT: workload.HubSetupTime},
		{From: workload.RegionalNode, To: "island", BW: workload.RegionalMediumBW, RTT: workload.RegionalSetupTime, SharedCapacity: true},
		{From: workload.SourceNode, To: "island", BW: workload.InterconnectBW},
	} {
		if err := severed.Topology.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	severed.Devices = append(severed.Devices, device.MediumIntelSpec(severed.Devices[0].Power).WithName("island"))

	cases := []corpusCase{
		{"video/testbed", workload.VideoProcessing(), workload.Testbed()},
		{"text/testbed", workload.TextProcessing(), workload.Testbed()},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, on(synthetic(16, seed), "scaled12", workload.ScaledTestbed(12)))
	}
	for seed := int64(4); seed <= 5; seed++ {
		cases = append(cases,
			on(synthetic(13, seed), "unshared4", unshared),
			on(synthetic(13, seed), "mirrored4", mirrored),
			on(synthetic(13, seed), "island2", severed),
		)
	}
	return cases
}

// walkStages runs the scheduler's stage loop over the model,
// committing every stage's choice so later stages price transfers from
// placed upstreams, and calls visit at each stage before it is solved.
func walkStages(t *testing.T, name string, model *costmodel.Model, visit func(st *costmodel.State, stage []int32)) {
	t.Helper()
	stages, err := model.Stages()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st := model.NewState()
	for _, stage := range stages {
		visit(st, stage)
		assigned := make([]costmodel.Option, len(stage))
		switch len(stage) {
		case 1:
			assigned[0], err = scheduleSolo(model, st, stage[0])
		case 2:
			assigned[0], assigned[1], err = schedulePair(model, st, stage[0], stage[1])
		default:
			opts := make([][]costmodel.Option, len(stage))
			for k, ms := range stage {
				opts[k] = model.Options(ms)
				assigned[k] = opts[k][0]
			}
			bestResponse(st, stage, opts, assigned)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, ms := range stage {
			st.Commit(ms, assigned[k])
		}
	}
}

// walkPairStages is walkStages visiting only the two-microservice stages. It
// returns the number of pair stages visited.
func walkPairStages(t *testing.T, name string, model *costmodel.Model, visit func(st *costmodel.State, m1, m2 int32)) int {
	t.Helper()
	pairs := 0
	walkStages(t, name, model, func(st *costmodel.State, stage []int32) {
		if len(stage) == 2 {
			pairs++
			visit(st, stage[0], stage[1])
		}
	})
	return pairs
}

// pricePairGame materializes the stage as g's bimatrix (|o1|×|o2|), bit for
// bit the payoffs bestPure reads without it: cell (i, j) pays -shared1[i] and
// -shared2[j] when the two options Contend, -solo1[i] and -solo2[j] otherwise.
func pricePairGame(ps *pairStage, g *game.Game) {
	for i, x := range ps.o1 {
		a, b := g.A.RowView(i), g.B.RowView(i)
		aSolo, aShared := -ps.solo1[i], -ps.shared1[i]
		for j, y := range ps.o2 {
			if costmodel.Contend(ps.regShared, x, y) {
				a[j], b[j] = aShared, -ps.shared2[j]
			} else {
				a[j], b[j] = aSolo, -ps.solo2[j]
			}
		}
	}
}

// pairMatrix materializes the stage's bimatrix.
func pairMatrix(ps *pairStage) *game.Game {
	g := game.New(game.NewMatrix(len(ps.o1), len(ps.o2)), game.NewMatrix(len(ps.o1), len(ps.o2)))
	pricePairGame(ps, g)
	return g
}

// fillPairGame prices the (m1, m2) stage on the state's arena exactly as
// schedulePair does and materializes its bimatrix.
func fillPairGame(model *costmodel.Model, st *costmodel.State, m1, m2 int32) *game.Game {
	ar := st.Arena()
	ar.Reset()
	ps := newPairStage(model, st, ar, m1, m2)
	return pairMatrix(&ps)
}

// TestPairGameMatchesCellByCellEnergy is the pricing oracle: every cell of
// every pair game in the corpus must carry, bit for bit, the negated energy
// the per-option estimator returns under that cell's co-assignment — the
// definition the two-price fill replaced. A mismatch names its cell.
func TestPairGameMatchesCellByCellEnergy(t *testing.T) {
	total, contended, infinite := 0, 0, 0
	for _, c := range pairGameCorpus(t) {
		model := costmodel.Compile(c.app, c.cluster)
		total += walkPairStages(t, c.name, model, func(st *costmodel.State, m1, m2 int32) {
			o1, o2 := model.Options(m1), model.Options(m2)
			g := fillPairGame(model, st, m1, m2)
			coMS := []int32{m1, m2}
			for i, x := range o1 {
				for j, y := range o2 {
					co := []costmodel.Option{x, y}
					wantA := -st.Energy(m1, x, coMS, co)
					wantB := -st.Energy(m2, y, coMS, co)
					if got := g.A.At(i, j); math.Float64bits(got) != math.Float64bits(wantA) {
						t.Fatalf("%s: stage (%s, %s): A[%d][%d] (%v vs %v) = %v, per-option energy gives %v",
							c.name, model.MSName(m1), model.MSName(m2), i, j,
							model.Assignment(x), model.Assignment(y), got, wantA)
					}
					if got := g.B.At(i, j); math.Float64bits(got) != math.Float64bits(wantB) {
						t.Fatalf("%s: stage (%s, %s): B[%d][%d] (%v vs %v) = %v, per-option energy gives %v",
							c.name, model.MSName(m1), model.MSName(m2), i, j,
							model.Assignment(x), model.Assignment(y), got, wantB)
					}
					if model.Contend(x, y) {
						contended++
					}
					if math.IsInf(wantA, -1) || math.IsInf(wantB, -1) {
						infinite++
					}
				}
			}
		})
	}
	// The corpus must exercise both prices and the infinite-transfer cells,
	// or the pin is vacuous where it matters.
	if total == 0 || contended == 0 || infinite == 0 {
		t.Fatalf("corpus too thin: %d pair stages, %d contended cells, %d infinite cells", total, contended, infinite)
	}
}

// certifyPairStage solves the (m1, m2) stage game as schedulePair does and
// requires the placement to have regret at most 1e-9 in the full stage game:
// neither microservice can lower its energy by moving alone. It returns the
// size of the game in cells.
func certifyPairStage(t *testing.T, name string, model *costmodel.Model, st *costmodel.State, m1, m2 int32) int {
	t.Helper()
	o1, o2 := model.Options(m1), model.Options(m2)
	p1, p2, err := schedulePair(model, st, m1, m2)
	if err != nil {
		t.Fatalf("%s: exact pair: %v", name, err)
	}
	g := fillPairGame(model, st, m1, m2)
	x := game.Pure(len(o1), indexOfOption(o1, p1))
	y := game.Pure(len(o2), indexOfOption(o2, p2))
	if r := g.Regret(x, y); !(r <= 1e-9) {
		t.Errorf("%s: stage (%s, %s): placement (%v, %v) has regret %g",
			name, model.MSName(m1), model.MSName(m2), model.Assignment(p1), model.Assignment(p2), r)
	}
	return len(o1) * len(o2)
}

// TestPairPlacementsAreEquilibria checks the paper's claim instead of
// assuming it: every pair placement the exact game returns on the corpus is
// certified by certifyPairStage.
func TestPairPlacementsAreEquilibria(t *testing.T) {
	exact := 0
	for _, c := range pairGameCorpus(t) {
		model := costmodel.Compile(c.app, c.cluster)
		exact += walkPairStages(t, c.name, model, func(st *costmodel.State, m1, m2 int32) {
			certifyPairStage(t, c.name, model, st, m1, m2)
		})
	}
	if exact == 0 {
		t.Fatal("certified no placement; test is vacuous")
	}
}

// checkKernelAgainstMatrix requires bestPure to return what BestPureNash
// returns on the stage's materialized bimatrix: the same cell, or no pure
// equilibrium on both sides. It reports whether there is one.
func checkKernelAgainstMatrix(t *testing.T, name string, ps *pairStage) bool {
	t.Helper()
	i, j, ok := ps.bestPure(game.NewArena())
	want, wantOK := pairMatrix(ps).BestPureNash()
	if ok != wantOK || (ok && (i != want.Row || j != want.Col)) {
		t.Fatalf("%s: bestPure = (%d, %d, %v), BestPureNash on the matrix = (%d, %d, %v)",
			name, i, j, ok, want.Row, want.Col, wantOK)
	}
	return ok
}

// generatedCorpus is 200 generated 16-microservice apps on four cluster
// sizes, 4 to 80 options a side.
func generatedCorpus(t *testing.T) []corpusCase {
	t.Helper()
	var cases []corpusCase
	for _, scale := range []int{1, 4, 12, 20} {
		cluster := workload.ScaledTestbed(scale)
		for seed := int64(1); seed <= 200; seed++ {
			app, err := workload.Generate(workload.DefaultGeneratorConfig(16, seed))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, corpusCase{fmt.Sprintf("synthetic16-%d/scaled%d", seed, 2*scale), app, cluster})
		}
	}
	return cases
}

// TestPairKernelMatchesMatrix pins the matrix-free kernel to the scan it
// replaced on every pair stage of the pair-game corpus and the generated
// corpus, each stage priced against the upstream placements the uncapped
// pass commits.
func TestPairKernelMatchesMatrix(t *testing.T) {
	stages, none := 0, 0
	for _, c := range append(pairGameCorpus(t), generatedCorpus(t)...) {
		model := costmodel.Compile(c.app, c.cluster)
		stages += walkPairStages(t, c.name, model, func(st *costmodel.State, m1, m2 int32) {
			ar := st.Arena()
			ar.Reset()
			ps := newPairStage(model, st, ar, m1, m2)
			if !checkKernelAgainstMatrix(t, fmt.Sprintf("%s: stage (%s, %s)", c.name, model.MSName(m1), model.MSName(m2)), &ps) {
				none++
			}
		})
	}
	if stages < 800 {
		t.Fatalf("walked %d pair stages; the pin needs the whole corpus", stages)
	}
	if none != 0 {
		t.Fatalf("%d of %d pair stages without a pure equilibrium", none, stages)
	}
	t.Logf("%d pair stages", stages)
}

// TestPairPricesContendedNotBelowSolo checks the premise of bestPure's
// pure-existence proof where the scheduler meets it: on every pair stage of
// TestPairKernelMatchesMatrix's corpus, EnergyRowPair prices each option at
// least as high contended as solo (NaN only at both levels at once), and
// bit-identically at both levels where the registry is unshared or does not
// route to the device.
func TestPairPricesContendedNotBelowSolo(t *testing.T) {
	stages, raised := 0, 0
	for _, c := range append(pairGameCorpus(t), generatedCorpus(t)...) {
		model := costmodel.Compile(c.app, c.cluster)
		regShared := model.Table().RegShared()
		stages += walkPairStages(t, c.name, model, func(st *costmodel.State, m1, m2 int32) {
			for _, ms := range []int32{m1, m2} {
				opts := model.Options(ms)
				solo, shared := make([]float64, len(opts)), make([]float64, len(opts))
				st.EnergyRowPair(ms, opts, solo, shared)
				for k, o := range opts {
					s, d := solo[k], shared[k]
					where := fmt.Sprintf("%s: %s at %v", c.name, model.MSName(ms), model.Assignment(o))
					if !regShared[o.Registry] || !model.LinkOK(o.Registry, o.Device) {
						if math.Float64bits(s) != math.Float64bits(d) {
							t.Fatalf("%s: one contention level, but solo %v and shared %v", where, s, d)
						}
						continue
					}
					if math.IsNaN(s) != math.IsNaN(d) || d < s {
						t.Fatalf("%s: contended price %v below solo %v", where, d, s)
					}
					if d > s {
						raised++
					}
				}
			}
		})
	}
	if stages < 800 || raised == 0 {
		t.Fatalf("walked %d pair stages, %d options dearer contended; the check needs the whole corpus", stages, raised)
	}
}

// exhaustPairStages runs bestPure over every pair stage on a 2-device ×
// 2-registry grid with both players offered all four options: each of the
// four sets of shared-uplink flags, and each assignment of a (solo, shared)
// price pair from {0, 1, 2}² to the eight options — only pairs with shared ≥
// solo when ordered. It returns the number of stages run and how many had no
// pure equilibrium, stopping at the first such stage when stopAtNone.
func exhaustPairStages(ordered, stopAtNone bool) (stages, none int) {
	// Unequal pairs come first, so the unordered search, which stops at its
	// first stage without an equilibrium, meets one early.
	var levels [][2]float64
	for _, p := range [][2]float64{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}, {0, 0}, {1, 1}, {2, 2}} {
		if p[1] >= p[0] || !ordered {
			levels = append(levels, p)
		}
	}
	grid := []costmodel.Option{{Device: 0, Registry: 0}, {Device: 0, Registry: 1}, {Device: 1, Registry: 0}, {Device: 1, Registry: 1}}
	ar := game.NewArena()
	for flags := 3; flags >= 0; flags-- { // both registries shared first: contention is likeliest
		ps := pairStage{
			o1: grid, o2: grid,
			regShared: []bool{flags&1 != 0, flags&2 != 0},
			solo1:     make([]float64, 4), shared1: make([]float64, 4),
			solo2: make([]float64, 4), shared2: make([]float64, 4),
		}
		var digit [8]int // option k's level: the row player's k < 4, the column player's k-4
		for {
			for k, l := range digit {
				p := levels[l]
				if k < 4 {
					ps.solo1[k], ps.shared1[k] = p[0], p[1]
				} else {
					ps.solo2[k-4], ps.shared2[k-4] = p[0], p[1]
				}
			}
			ar.Reset()
			stages++
			if _, _, ok := ps.bestPure(ar); !ok {
				if none++; stopAtNone {
					return stages, none
				}
			}
			k := 0
			for ; k < len(digit) && digit[k] == len(levels)-1; k++ {
				digit[k] = 0
			}
			if k == len(digit) {
				break
			}
			digit[k]++
		}
	}
	return stages, none
}

// TestPairStagesAlwaysPure re-proves bestPure's pure-existence claim on the
// cost model's structure — options as (device, registry) cells, contention on
// a shared registry across devices — by exhaustive search: all 4 · 6⁸ ≈ 6.7 M
// ordered stages of the small grid have a pure equilibrium. The negative
// control drops the ordering and must find a stage with none, or the search
// could not tell the premise mattered.
func TestPairStagesAlwaysPure(t *testing.T) {
	stages, none := exhaustPairStages(true, false)
	if stages != 4*1679616 || none != 0 {
		t.Fatalf("ordered prices: %d of %d stages without a pure equilibrium", none, stages)
	}
	if stages, none := exhaustPairStages(false, true); none == 0 {
		t.Fatalf("unordered prices: all %d stages have a pure equilibrium; the search is vacuous", stages)
	} else {
		t.Logf("unordered prices: first stage without a pure equilibrium at %d", stages)
	}
}

// fuzzPairStage decodes bytes into a pair stage on a grid of at most 6
// devices × 4 registries: a shape byte each for devices and registries, a
// byte of shared-uplink flags, three bytes per player choosing its options
// among the grid's cells (one at least), then one byte per price — solo and
// shared for each option, row player first — from an alphabet dense in the
// values the kernel has to classify exactly: ties inside and at the 1e-12
// tolerance, ±Inf and NaN.
func fuzzPairStage(data []byte) (pairStage, bool) {
	if len(data) < 9 {
		return pairStage{}, false
	}
	nd, nr := 1+int(data[0]%6), 1+int(data[1]%4)
	ps := pairStage{regShared: make([]bool, nr)}
	for r := range ps.regShared {
		ps.regShared[r] = data[2]&(1<<r) != 0
	}
	options := func(mask []byte) []costmodel.Option {
		var opts []costmodel.Option
		for d := 0; d < nd; d++ {
			for r := 0; r < nr; r++ {
				if bit := d*nr + r; mask[bit/8]&(1<<(bit%8)) != 0 {
					opts = append(opts, costmodel.Option{Device: int32(d), Registry: int32(r)})
				}
			}
		}
		if len(opts) == 0 {
			opts = append(opts, costmodel.Option{})
		}
		return opts
	}
	ps.o1, ps.o2 = options(data[3:6]), options(data[6:9])
	data = data[9:]
	alphabet := [...]float64{
		0, 1, 2, 3, 1 + 5e-13, 1 - 5e-13, 1 + 1e-12, 2 + 2e-12, 2 - 1e-12,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	prices := func(n int) []float64 {
		row := make([]float64, n)
		for k := range row {
			if len(data) > 0 {
				row[k] = alphabet[int(data[0])%len(alphabet)]
				data = data[1:]
			}
		}
		return row
	}
	ps.solo1, ps.shared1 = prices(len(ps.o1)), prices(len(ps.o1))
	ps.solo2, ps.shared2 = prices(len(ps.o2)), prices(len(ps.o2))
	return ps, true
}

// FuzzPairKernelMatchesMatrix: on any small pair stage — random option
// sets, shared flags and price rows, NaN and ±Inf included — the kernel
// returns the cell BestPureNash picks on the materialized bimatrix.
func FuzzPairKernelMatchesMatrix(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0x03, 0, 0, 0x03, 0, 0, 1, 2, 1, 3, 1, 2, 2, 1})                   // 2 devices, 1 shared registry
	f.Add([]byte{3, 1, 1, 0xff, 0, 0, 0xff, 0, 0, 4, 5, 6, 4, 0, 0, 1, 1, 5, 6, 5, 6, 4, 5}) // ties inside tolerance
	f.Add([]byte{5, 3, 0x05, 0xff, 0xff, 0xff, 0xaa, 0x55, 0xaa, 9, 10, 11, 0, 1, 2, 3, 11}) // 6x4, NaN and ±Inf
	f.Add([]byte{2, 2, 0, 0x07, 0, 0, 0x38, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 0, 0})       // nothing shared
	f.Add([]byte{0, 1, 3, 0x01, 0, 0, 0x02, 0, 0, 1, 2, 3, 0})                               // disjoint registries
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, ok := fuzzPairStage(data)
		if !ok {
			return
		}
		checkKernelAgainstMatrix(t, "fuzz", &ps)
	})
}

func indexOfOption(opts []costmodel.Option, o costmodel.Option) int {
	for i, x := range opts {
		if x == o {
			return i
		}
	}
	return -1
}

// TestSolverStatsPartitionStages: the per-path counts a pass records add up
// to its stages: solo and pair stages are exact, wider ones go to the
// dynamics.
func TestSolverStatsPartitionStages(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig(13, 3)
	cfg.StageWidth = 4 // stage widths 1 2 4 3 2 1
	app, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Compile(app, workload.ScaledTestbed(4))
	stages, err := model.Stages()
	if err != nil {
		t.Fatal(err)
	}
	solo, pair, wide := 0, 0, 0
	for _, s := range stages {
		switch len(s) {
		case 1:
			solo++
		case 2:
			pair++
		default:
			wide++
		}
	}
	if solo == 0 || pair == 0 || wide == 0 {
		t.Fatalf("fixture needs every stage width: %d solo, %d pair, %d wide", solo, pair, wide)
	}
	p := NewPass(model)
	if err := NewDEEP().ScheduleInto(p); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Solver(), (SolverStats{Exact: solo + pair, BestResponse: wide}); got != want {
		t.Errorf("solver stats %+v, want %+v", got, want)
	}
}

// TestBestResponseReportsNonConvergence: on a stage game built to cycle, the
// dynamics spend the whole budget, say so, and the pass counts it — where
// they used to return the last profile visited as if it were a fixed point.
func TestBestResponseReportsNonConvergence(t *testing.T) {
	app, cluster := workload.CyclingStage()
	model := costmodel.Compile(app, cluster)
	stages, err := model.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || len(stages[1]) != 3 {
		t.Fatalf("fixture stages %v, want a solo stage then a three-player stage", stages)
	}

	st := model.NewState()
	first, err := scheduleSolo(model, st, stages[0][0])
	if err != nil {
		t.Fatal(err)
	}
	st.Commit(stages[0][0], first)
	stage := stages[1]
	opts := make([][]costmodel.Option, len(stage))
	cur := make([]costmodel.Option, len(stage))
	for k, ms := range stage {
		opts[k] = model.Options(ms)
		if len(opts[k]) != 2 {
			t.Fatalf("%s has %d options, the fixture pins it to two", model.MSName(ms), len(opts[k]))
		}
		cur[k] = opts[k][0]
	}
	iters, converged := bestResponse(st, stage, opts, cur)
	if converged || iters != bestResponseBudget {
		t.Errorf("cycling stage: bestResponse = (%d, %v), want (%d, false)", iters, converged, bestResponseBudget)
	}

	p := NewPass(model)
	if err := NewDEEP().ScheduleInto(p); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Solver(), (SolverStats{Exact: 1, BestResponse: 1, NonConverged: 1}); got != want {
		t.Errorf("cycling stage: solver stats %+v, want %+v", got, want)
	}
	// The placement is still deployable — non-convergence costs optimality,
	// not feasibility.
	if err := cluster.Validate(app, p.Placement()); err != nil {
		t.Errorf("cycling stage placement infeasible: %v", err)
	}

	// And a stage that does settle says so, well inside the budget.
	text := costmodel.Compile(workload.TextProcessing(), workload.Testbed())
	tst := text.NewState()
	tstages, err := text.Stages()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tstages {
		o := make([][]costmodel.Option, len(s))
		c := make([]costmodel.Option, len(s))
		for k, ms := range s {
			o[k] = text.Options(ms)
			c[k] = o[k][0]
		}
		if iters, converged := bestResponse(tst, s, o, c); !converged || iters >= bestResponseBudget {
			t.Errorf("text stage %v: bestResponse = (%d, %v), want convergence", s, iters, converged)
		}
		for k, ms := range s {
			tst.Commit(ms, c[k])
		}
	}
}
