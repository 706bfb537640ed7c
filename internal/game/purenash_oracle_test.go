package game

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// isPureNash is the per-cell definition the O(cells) kernel replaced — scan
// column j of A and row i of B for a deviation worth more than 1e-12 — kept
// here as the oracle scanPureNash is pinned against.
func (g *Game) isPureNash(i, j int) bool {
	aij := g.A.At(i, j)
	for r := 0; r < g.A.Rows; r++ {
		if g.A.At(r, j) > aij+1e-12 {
			return false
		}
	}
	bij := g.B.At(i, j)
	for c := 0; c < g.B.Cols; c++ {
		if g.B.At(i, c) > bij+1e-12 {
			return false
		}
	}
	return true
}

// oraclePureNash enumerates equilibria cell by cell in row-major order.
func oraclePureNash(g *Game) []PureProfile {
	var out []PureProfile
	rows, cols := g.Shape()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if g.isPureNash(i, j) {
				out = append(out, PureProfile{Row: i, Col: j})
			}
		}
	}
	return out
}

// oracleBestPureNash is the old BestPureNash: the per-cell scan followed by
// the welfare / row-payoff / first-in-order selection.
func oracleBestPureNash(g *Game) (PureProfile, bool) {
	var sel PureSelection
	for _, e := range oraclePureNash(g) {
		sel.Offer(e, g.A.At(e.Row, e.Col), g.B.At(e.Row, e.Col))
	}
	return sel.Best, sel.OK
}

// checkAgainstOracle pins the two public scans to the per-cell oracle on one
// game.
func checkAgainstOracle(t *testing.T, name string, a, b [][]float64) {
	t.Helper()
	g := New(MatrixFrom(a), MatrixFrom(b))
	want := oraclePureNash(g)
	wantBest, wantOK := oracleBestPureNash(g)
	profiles := g.PureNash()
	if len(profiles) != len(want) {
		t.Fatalf("%s: PureNash found %d equilibria, oracle %d", name, len(profiles), len(want))
	}
	for k, p := range profiles {
		if p.Row[want[k].Row] != 1 || p.Col[want[k].Col] != 1 {
			t.Fatalf("%s: PureNash profile %d is not the one-hot form of %v (row-major order)", name, k, want[k])
		}
	}
	best, ok := g.BestPureNash()
	if ok != wantOK || best != wantBest {
		t.Fatalf("%s: BestPureNash=(%v, %v), oracle (%v, %v)", name, best, ok, wantBest, wantOK)
	}
}

// TestPureNashKernelMatchesOracleEdgeCases walks the places a column-max /
// row-max kernel could part ways with the per-cell scan: payoffs tied inside
// the 1e-12 tolerance, constant columns and rows, infinities, NaNs (which
// compare false both ways), and degenerate 1×n / n×1 shapes.
func TestPureNashKernelMatchesOracleEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		a, b [][]float64
	}{
		{"ties inside tolerance",
			[][]float64{{1, 1 + 5e-13, 2}, {1 + 9e-13, 1, 2 - 5e-13}, {1 - 9e-13, 1 + 1e-12, 2 + 2e-12}},
			[][]float64{{3, 3 + 5e-13, 3 - 5e-13}, {0, 1e-12, 2e-12}, {7, 7, 7 + 1.5e-12}}},
		{"tie exactly at tolerance",
			[][]float64{{0, 1e-12}, {1e-12, 0}},
			[][]float64{{0, 1e-12}, {2e-12, 0}}},
		{"all-equal columns",
			[][]float64{{4, -1, 0}, {4, -1, 0}, {4, -1, 0}},
			[][]float64{{1, 2, 3}, {3, 2, 1}, {2, 2, 2}}},
		{"all-equal everything",
			[][]float64{{5, 5}, {5, 5}},
			[][]float64{{5, 5}, {5, 5}}},
		{"+Inf payoffs",
			[][]float64{{inf, 0}, {1, inf}},
			[][]float64{{0, inf}, {inf, inf}}},
		{"-Inf payoffs",
			[][]float64{{-inf, -inf}, {-inf, 0}},
			[][]float64{{-inf, -inf}, {0, -inf}}},
		{"whole -Inf column and row",
			[][]float64{{-inf, 2}, {-inf, 3}},
			[][]float64{{-inf, -inf}, {1, 0}}},
		{"NaN payoffs",
			[][]float64{{nan, 1, 2}, {0, nan, 2}, {3, 1, nan}},
			[][]float64{{1, nan, 0}, {nan, nan, nan}, {0, 2, nan}}},
		{"NaN column",
			[][]float64{{nan, 1}, {nan, 0}},
			[][]float64{{0, 1}, {1, 0}}},
		{"NaN beside Inf",
			[][]float64{{nan, inf}, {-inf, nan}},
			[][]float64{{inf, nan}, {nan, -inf}}},
		{"1xn", [][]float64{{3, 1, 2, 3}}, [][]float64{{0, 5, 5, 1}}},
		{"nx1", [][]float64{{3}, {1}, {3}, {2}}, [][]float64{{0}, {5}, {1}, {5}}},
		{"1x1", [][]float64{{nan}}, [][]float64{{-inf}}},
		{"no pure equilibrium (matching pennies)",
			[][]float64{{1, -1}, {-1, 1}},
			[][]float64{{-1, 1}, {1, -1}}},
	}
	for _, c := range cases {
		checkAgainstOracle(t, c.name, c.a, c.b)
	}
}

// TestPureNashKernelMatchesOracleRandom: seeded games over a small payoff
// alphabet (so ties, dominated lines, and several equilibria are common)
// salted with sub-tolerance noise and the occasional special value.
func TestPureNashKernelMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e-12, -1e-12}
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		fill := func() [][]float64 {
			m := make([][]float64, rows)
			for i := range m {
				m[i] = make([]float64, cols)
				for j := range m[i] {
					v := float64(rng.Intn(4))
					switch rng.Intn(12) {
					case 0:
						v = specials[rng.Intn(len(specials))]
					case 1, 2:
						v += (rng.Float64() - 0.5) * 4e-12
					}
					m[i][j] = v
				}
			}
			return m
		}
		checkAgainstOracle(t, "random", fill(), fill())
	}
}

// fuzzBimatrix decodes bytes into a small bimatrix: two shape bytes, then
// one byte per payoff drawn from an alphabet dense in the values the kernel
// has to classify exactly (ties, sub-tolerance offsets, ±Inf, NaN); a
// trailing 8-byte word, when present, is one raw float64 broadcast over the
// cells whose byte selects it.
func fuzzBimatrix(data []byte) (a, b [][]float64) {
	if len(data) < 2 {
		return nil, nil
	}
	rows, cols := 1+int(data[0]%5), 1+int(data[1]%5)
	data = data[2:]
	raw := 0.5
	if cells := 2 * rows * cols; len(data) >= cells+8 {
		raw = math.Float64frombits(binary.LittleEndian.Uint64(data[cells:]))
	}
	alphabet := [...]float64{
		0, 1, 2, 3, -1, 1 + 5e-13, 1 - 5e-13, 1 + 1e-12, 1 + 2e-12,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, raw,
	}
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		v := alphabet[int(data[0])%len(alphabet)]
		data = data[1:]
		return v
	}
	fill := func() [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = next()
			}
		}
		return m
	}
	return fill(), fill()
}

// FuzzBestPureNashMatchesOracle: for any small bimatrix the O(cells) kernel
// finds the oracle's equilibria, in its order, and selects the same one.
func FuzzBestPureNashMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 1, 0, 1, 0, 0, 1})             // 2x2 coordination
	f.Add([]byte{1, 1, 1, 4, 4, 1, 4, 1, 1, 4})             // matching pennies
	f.Add([]byte{2, 2, 5, 6, 7, 8, 1, 1, 11, 9, 10, 0, 14}) // tolerance ties, NaN, Inf
	f.Add([]byte{0, 4, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2})       // 1x5
	f.Add([]byte{4, 0, 3, 3, 11, 3, 3, 9, 9, 9, 10, 10})    // 5x1
	f.Add(append([]byte{1, 1, 14, 14, 0, 1, 14, 0, 1, 14}, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzBimatrix(data)
		if a == nil {
			return
		}
		checkAgainstOracle(t, "fuzz", a, b)
	})
}
