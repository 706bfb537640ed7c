package sched

import (
	"fmt"
	"math"
	"testing"

	"deep/internal/costmodel"
)

// soloMatrix is the solo stage as the per-cell definition states it, the
// oracle soloEquilibrium is pinned against. It builds the devices ×
// registries common-interest bimatrix over the distinct devices and
// registries among opts (ascending), pays both players -prices[k] at option
// k's cell and -pen at every other cell (pen is ten times the worst price,
// worst+1 when that is not larger), and takes bestPureCells. It returns the
// winning option's index, or ok=false when there is no equilibrium or a
// penalty cell wins.
func soloMatrix(opts []costmodel.Option, prices []float64) (k int, ok bool) {
	var devs, regs []int32
	for _, o := range opts {
		devs = insertSorted(devs, o.Device)
		regs = insertSorted(regs, o.Registry)
	}
	worst := 0.0
	for _, c := range prices {
		if c > worst {
			worst = c
		}
	}
	pen := worst * 10
	if pen <= worst {
		pen = worst + 1
	}
	a, optAt := make([][]float64, len(devs)), make([][]int, len(devs))
	for i := range a {
		a[i], optAt[i] = make([]float64, len(regs)), make([]int, len(regs))
		for j := range a[i] {
			a[i][j], optAt[i][j] = -pen, -1
		}
	}
	for k, o := range opts {
		i, j := indexOf32(devs, o.Device), indexOf32(regs, o.Registry)
		a[i][j], optAt[i][j] = -prices[k], k
	}
	// A common-interest game: both players are paid the negated energy.
	best, ok := bestPureCells(a, a)
	if !ok || optAt[best.Row][best.Col] < 0 {
		return 0, false
	}
	return optAt[best.Row][best.Col], true
}

func insertSorted(s []int32, v int32) []int32 {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func indexOf32(s []int32, v int32) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// checkSoloAgainstMatrix requires soloEquilibrium to pick the option the
// matrix oracle picks, or to find no feasible assignment exactly when it
// does.
func checkSoloAgainstMatrix(t *testing.T, name string, opts []costmodel.Option, prices []float64, nr int) {
	t.Helper()
	k, ok := soloEquilibrium(opts, prices, nr, new(costmodel.GameArena))
	want, wantOK := soloMatrix(opts, prices)
	if ok != wantOK || (ok && k != want) {
		t.Fatalf("%s: soloEquilibrium = (%d, %v), the matrix = (%d, %v)\noptions %v\nprices %v",
			name, k, ok, want, wantOK, opts, prices)
	}
}

// TestSoloKernelMatchesMatrix pins the row kernel to the matrix it replaced
// on every solo stage of the fused corpus, the pair-game corpus (whose
// island device gives +Inf prices) and the generated corpus, each priced
// against the upstream placements the uncapped pass commits; scheduleSolo's
// option or error must be the matrix's too.
func TestSoloKernelMatchesMatrix(t *testing.T) {
	cases := append(pairGameCorpus(t), generatedCorpus(t)...)
	for _, c := range fusedCorpus(t) {
		cases = append(cases, corpusCase{name: c.name, app: c.app, cluster: c.mk()})
	}
	stages, infinite := 0, 0
	for _, c := range cases {
		model := costmodel.Compile(c.app, c.cluster)
		walkStages(t, c.name, model, func(st *costmodel.State, stage []int32) {
			if len(stage) != 1 {
				return
			}
			stages++
			ms := stage[0]
			name := fmt.Sprintf("%s: stage %s", c.name, model.MSName(ms))
			opts := model.Options(ms)
			prices := make([]float64, len(opts))
			st.EnergyRow(ms, opts, nil, nil, prices)
			for _, p := range prices {
				if math.IsInf(p, 1) {
					infinite++
					break
				}
			}
			checkSoloAgainstMatrix(t, name, opts, prices, model.NumRegistries())

			got, err := scheduleSolo(model, st, ms, model.Options(ms))
			want, wantOK := soloMatrix(opts, prices)
			if (err == nil) != wantOK || (wantOK && got != opts[want]) {
				t.Fatalf("%s: scheduleSolo = (%v, %v), the matrix picks option %d (ok %v)", name, got, err, want, wantOK)
			}
		})
	}
	if stages < 3000 || infinite == 0 {
		t.Fatalf("walked %d solo stages, %d with +Inf prices; the pin needs the whole corpus", stages, infinite)
	}
	t.Logf("%d solo stages, %d with +Inf prices", stages, infinite)
}

// fuzzSoloStage decodes bytes into a solo stage on a grid of at most 6
// devices × 4 registries: a shape byte each for devices and registries,
// three bytes choosing the options among the grid's cells (possibly none),
// then one byte per price from an alphabet dense in the values the kernel
// has to classify exactly: ties inside and at the 1e-12 tolerance, prices
// small enough that the penalty ties them (0, 1e-14), ±Inf and NaN.
func fuzzSoloStage(data []byte) (opts []costmodel.Option, prices []float64, nr int, ok bool) {
	if len(data) < 5 {
		return nil, nil, 0, false
	}
	nd, nr := 1+int(data[0]%6), 1+int(data[1]%4)
	mask := data[2:5]
	for d := 0; d < nd; d++ {
		for r := 0; r < nr; r++ {
			if bit := d*nr + r; mask[bit/8]&(1<<(bit%8)) != 0 {
				opts = append(opts, costmodel.Option{Device: int32(d), Registry: int32(r)})
			}
		}
	}
	data = data[5:]
	alphabet := [...]float64{
		0, 1e-14, 1, 2, 3, 1 + 5e-13, 1 - 5e-13, 1 + 1e-12, 2 + 2e-12, 2 - 1e-12, 5e-13,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	prices = make([]float64, len(opts))
	for k := range prices {
		if len(data) > 0 {
			prices[k] = alphabet[int(data[0])%len(alphabet)]
			data = data[1:]
		}
	}
	return opts, prices, nr, true
}

// FuzzSoloKernelMatchesMatrix: on any small solo stage — random option
// subsets of the grid and price rows, NaN and ±Inf included — the kernel
// picks the option the matrix picks, and finds no feasible assignment
// exactly when the matrix does.
func FuzzSoloKernelMatchesMatrix(f *testing.F) {
	f.Add([]byte{1, 1, 0x0f, 0, 0, 2, 3, 2, 4})                       // 2x2, full grid
	f.Add([]byte{5, 3, 0xa5, 0x5a, 0xa5, 11, 11, 11, 11, 11, 11, 11}) // 6x4, +Inf rows
	f.Add([]byte{2, 2, 0x51, 0x01, 0, 13, 2, 13, 3})                  // missing cells, NaN
	f.Add([]byte{3, 2, 0x3d, 0x0c, 0, 0, 1, 1, 0, 10, 1, 0})          // prices the penalty ties
	f.Add([]byte{1, 3, 0xee, 0, 0, 12, 1, 11, 13, 5, 6})              // -Inf, ties inside tolerance
	f.Add([]byte{1, 2, 0x5a, 0, 0, 13, 13, 6})                        // a penalty cell wins before a NaN
	f.Add([]byte{3, 2, 0x31, 0x32, 0x30, 6, 13})                      // a registry beats a device maximum
	f.Add([]byte{0, 0, 0, 0, 0})                                      // no options
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, prices, nr, ok := fuzzSoloStage(data)
		if !ok {
			return
		}
		checkSoloAgainstMatrix(t, "fuzz", opts, prices, nr)
	})
}
