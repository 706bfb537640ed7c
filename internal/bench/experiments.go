// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Tables I-III, Figures 3a/3b) plus the ablation
// studies DESIGN.md calls out. Each runner returns structured rows and can
// render the same text layout the paper reports, so `cmd/deepbench`
// regenerates the entire evaluation section.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"deep/internal/core"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// Table1Row is one line of the image catalog.
type Table1Row struct {
	App, Name, Hub, Regional string
	Size                     units.Bytes
}

// Table1 reproduces the paper's Table I: the images of both applications on
// both registries.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, r := range workload.TableI {
		b, _ := workload.Row(r.App, r.Name)
		rows = append(rows, Table1Row{
			App: r.App, Name: r.Name, Hub: r.Hub, Regional: r.Regional,
			Size: units.Bytes(math.Round(b.SizeGB * float64(units.GB))),
		})
	}
	return rows
}

// FormatTable1 renders Table I.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Docker images of microservices\n")
	fmt.Fprintf(&b, "%-6s %-11s %-9s %-22s %s\n", "App", "Service", "Size", "Docker Hub", "Regional Registry")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-11s %-9s %-22s %s\n", r.App, r.Name, r.Size, r.Hub, r.Regional)
	}
	return b.String()
}

// Range is a [min, max] measurement interval.
type Range struct{ Min, Max float64 }

func (r Range) String() string { return fmt.Sprintf("%.0f–%.0f", r.Min, r.Max) }

// widen folds a sample into the range.
func (r *Range) widen(v float64) {
	if r.Min == 0 && r.Max == 0 {
		r.Min, r.Max = v, v
		return
	}
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
}

// Table2Row is one simulated benchmark row next to the paper's.
type Table2Row struct {
	App, Name string
	Size      units.Bytes
	Tp, CT    Range // simulated, across registries and trials (medium device)
	ECMedium  Range
	ECSmall   Range
	Paper     workload.BenchRow
}

// Table2 reproduces the paper's Table II by benchmarking every microservice
// standalone from both registries on both devices over `trials` jittered
// runs.
func Table2(trials int) ([]Table2Row, error) {
	if trials < 1 {
		trials = 1
	}
	var rows []Table2Row
	for _, r := range workload.TableII {
		row := Table2Row{App: r.App, Name: r.Name, Paper: r,
			Size: units.Bytes(math.Round(r.SizeGB * float64(units.GB)))}
		for _, reg := range []string{"hub", "regional"} {
			for trial := 0; trial < trials; trial++ {
				med, err := workload.BenchmarkRun(r.App, r.Name, "medium", reg, int64(trial), 0.015)
				if err != nil {
					return nil, err
				}
				mr := med.Microservices[0]
				row.Tp.widen(mr.ProcessTime)
				row.CT.widen(mr.CT)
				row.ECMedium.widen(float64(mr.TotalEnergy()))

				small, err := workload.BenchmarkRun(r.App, r.Name, "small", reg, int64(trial), 0.015)
				if err != nil {
					return nil, err
				}
				sr := small.Microservices[0]
				row.ECSmall.widen(float64(sr.TotalEnergy()))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the simulated Table II next to the published ranges.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: Benchmarks of microservices (simulated | paper)\n")
	fmt.Fprintf(&b, "%-6s %-11s %-8s %-12s %-12s %-22s %-22s\n",
		"App", "Service", "Size", "Tp [s]", "CT [s]", "EC medium [J]", "EC small [J]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-11s %-8s %-12s %-12s %-10s | %-9s %-10s | %s\n",
			r.App, r.Name, r.Size,
			r.Tp.String(), r.CT.String(),
			r.ECMedium.String(), fmt.Sprintf("%.0f–%.0f", r.Paper.ECMedMin, r.Paper.ECMedMax),
			r.ECSmall.String(), fmt.Sprintf("%.0f–%.0f", r.Paper.ECSmallMin, r.Paper.ECSmallMax))
	}
	return b.String()
}

// Table3Row reports the deployment distribution for one app.
type Table3Row struct {
	App       string
	Fractions core.Distribution // device -> registry -> fraction
	Placement sim.Placement
	// MatchesPaper is true when every microservice landed exactly where
	// Table III reports.
	MatchesPaper bool
}

// Table3 runs the DEEP scheduler on both case studies and reports the
// distribution of image deployments and executions, the paper's Table III.
func Table3() ([]Table3Row, error) {
	cluster := workload.Testbed()
	s := sched.NewDEEP()
	var rows []Table3Row
	for _, app := range workload.Apps() {
		p, err := sched.Schedule(s, app, cluster)
		if err != nil {
			return nil, err
		}
		matches := true
		for ms, want := range workload.PaperPlacement(app.Name) {
			if p[ms] != want {
				matches = false
			}
		}
		rows = append(rows, Table3Row{
			App:          app.Name,
			Fractions:    core.DistributionOf(p),
			Placement:    p,
			MatchesPaper: matches,
		})
	}
	return rows, nil
}

// FormatTable3 renders the distribution as Table III does (percentages per
// device × registry).
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table III: Distribution (%) of image deployments and executions\n")
	fmt.Fprintf(&b, "%-18s %-8s %-11s %-17s %s\n", "App", "Device", "Docker Hub", "Regional Registry", "matches paper")
	for _, r := range rows {
		devices := make([]string, 0, len(r.Fractions))
		for d := range r.Fractions {
			devices = append(devices, d)
		}
		sort.Strings(devices)
		for i, d := range devices {
			app := ""
			match := ""
			if i == 0 {
				app = r.App
				match = fmt.Sprintf("%v", r.MatchesPaper)
			}
			fmt.Fprintf(&b, "%-18s %-8s %-11s %-17s %s\n", app, d,
				pct(r.Fractions[d]["hub"]), pct(r.Fractions[d]["regional"]), match)
		}
	}
	return b.String()
}

func pct(f float64) string {
	if f == 0 {
		return "–"
	}
	return fmt.Sprintf("%.0f%%", 100*f)
}

// Fig3aRow is one bar of Figure 3a: energy per microservice under DEEP.
type Fig3aRow struct {
	App, Name string
	Energy    units.Joules
}

// Fig3a simulates the DEEP placement and reports per-microservice energy.
func Fig3a() ([]Fig3aRow, error) {
	cluster := workload.Testbed()
	s := sched.NewDEEP()
	var rows []Fig3aRow
	for _, app := range workload.Apps() {
		p, err := sched.Schedule(s, app, cluster)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(app, cluster, p, sim.Options{})
		if err != nil {
			return nil, err
		}
		for _, m := range res.Microservices {
			name := strings.TrimPrefix(m.Name, app.Name+"/")
			rows = append(rows, Fig3aRow{App: app.Name, Name: name, Energy: m.TotalEnergy()})
		}
	}
	return rows, nil
}

// FormatFig3a renders the per-microservice energies as an ASCII bar chart.
func FormatFig3a(rows []Fig3aRow) string {
	var b strings.Builder
	b.WriteString("Figure 3a: Energy consumed by each microservice under DEEP\n")
	var max float64
	for _, r := range rows {
		if float64(r.Energy) > max {
			max = float64(r.Energy)
		}
	}
	for _, r := range rows {
		bar := int(40 * float64(r.Energy) / max)
		fmt.Fprintf(&b, "%-6s %-11s %8.0f J |%s\n", r.App, r.Name, float64(r.Energy), strings.Repeat("#", bar))
	}
	return b.String()
}

// Fig3bRow is one bar group of Figure 3b: one deployment method's total
// energy for one application.
type Fig3bRow struct {
	App    string
	Method string
	Energy units.Joules
	// DeltaVsDEEP is this method's extra energy relative to DEEP (J).
	DeltaVsDEEP float64
}

// Fig3b compares DEEP against the exclusive methods on both applications.
func Fig3b() ([]Fig3bRow, error) {
	cluster := workload.Testbed()
	methods := []sched.Scheduler{
		sched.NewDEEP(),
		sched.NewExclusive("regional"),
		sched.NewExclusive("hub"),
	}
	var rows []Fig3bRow
	for _, app := range workload.Apps() {
		var deepE float64
		for _, m := range methods {
			p, err := sched.Schedule(m, app, cluster)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(app, cluster, p, sim.Options{})
			if err != nil {
				return nil, err
			}
			e := float64(res.TotalEnergy)
			if m.Name() == "deep" {
				deepE = e
			}
			rows = append(rows, Fig3bRow{App: app.Name, Method: m.Name(), Energy: res.TotalEnergy, DeltaVsDEEP: e - deepE})
		}
	}
	return rows, nil
}

// FormatFig3b renders the method comparison.
func FormatFig3b(rows []Fig3bRow) string {
	var b strings.Builder
	b.WriteString("Figure 3b: Energy by deployment method\n")
	fmt.Fprintf(&b, "%-18s %-20s %12s %14s\n", "App", "Method", "Energy [kJ]", "Δ vs DEEP [J]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-20s %12.3f %14.1f\n", r.App, r.Method, r.Energy.Kilojoules(), r.DeltaVsDEEP)
	}
	return b.String()
}
