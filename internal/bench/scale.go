package bench

import (
	"fmt"

	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

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
