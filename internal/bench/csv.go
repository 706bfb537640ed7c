package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// CSV emitters so the regenerated experiment data can be plotted with
// external tooling.

// WriteTable2CSV emits the simulated Table II with the paper's ranges.
func WriteTable2CSV(w io.Writer, rows []Table2Row) error {
	cw := csv.NewWriter(w)
	header := []string{
		"app", "microservice", "size_bytes",
		"tp_min", "tp_max", "ct_min", "ct_max",
		"ec_medium_min", "ec_medium_max", "ec_small_min", "ec_small_max",
		"paper_ec_medium_min", "paper_ec_medium_max", "paper_ec_small_min", "paper_ec_small_max",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.App, r.Name, strconv.FormatInt(int64(r.Size), 10),
			f(r.Tp.Min), f(r.Tp.Max), f(r.CT.Min), f(r.CT.Max),
			f(r.ECMedium.Min), f(r.ECMedium.Max), f(r.ECSmall.Min), f(r.ECSmall.Max),
			f(r.Paper.ECMedMin), f(r.Paper.ECMedMax), f(r.Paper.ECSmallMin), f(r.Paper.ECSmallMax),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig3bCSV emits the method-comparison series.
func WriteFig3bCSV(w io.Writer, rows []Fig3bRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "method", "energy_j", "delta_vs_deep_j"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.App, r.Method, f(float64(r.Energy)), f(r.DeltaVsDEEP)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// ScaleRow is one point of the scalability sweep: how scheduling time and
// outcome quality evolve as applications grow beyond the paper's
// six-microservice pipelines.
type ScaleRow struct {
	Microservices int
	DeepEnergy    float64 // J
	RandomEnergy  float64 // J
	// Improvement is the fraction of random's energy DEEP saves.
	Improvement float64
}

// ScaleSweep schedules synthetic applications of growing size on the
// calibrated testbed and compares DEEP with the random baseline.
func ScaleSweep(sizes []int, seed int64) ([]ScaleRow, error) {
	cluster := workload.Testbed()
	var rows []ScaleRow
	for _, n := range sizes {
		app, err := workload.Generate(workload.DefaultGeneratorConfig(n, seed))
		if err != nil {
			return nil, err
		}
		pDeep, err := sched.Schedule(sched.NewDEEP(), app, cluster)
		if err != nil {
			return nil, err
		}
		rDeep, err := sim.Run(app, cluster, pDeep, sim.Options{})
		if err != nil {
			return nil, err
		}
		pRand, err := sched.Schedule(sched.NewRandom(seed), app, cluster)
		if err != nil {
			return nil, err
		}
		rRand, err := sim.Run(app, cluster, pRand, sim.Options{})
		if err != nil {
			return nil, err
		}
		row := ScaleRow{
			Microservices: n,
			DeepEnergy:    float64(rDeep.TotalEnergy),
			RandomEnergy:  float64(rRand.TotalEnergy),
		}
		if row.RandomEnergy > 0 {
			row.Improvement = 1 - row.DeepEnergy/row.RandomEnergy
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatScaleSweep renders the sweep.
func FormatScaleSweep(rows []ScaleRow) string {
	out := "Ablation: scalability on synthetic applications\n"
	out += fmt.Sprintf("%-6s %14s %14s %12s\n", "n", "DEEP [kJ]", "random [kJ]", "saving")
	for _, r := range rows {
		out += fmt.Sprintf("%-6d %14.3f %14.3f %11.1f%%\n",
			r.Microservices, r.DeepEnergy/1000, r.RandomEnergy/1000, 100*r.Improvement)
	}
	return out
}
