package bench

import (
	"fmt"
	"strings"

	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// SchedulerComparisonRow is one line of the scheduler ablation.
type SchedulerComparisonRow struct {
	App      string
	Method   string
	Energy   units.Joules
	Makespan float64
}

// SchedulerComparison runs every scheduler (DEEP, exclusives, greedy,
// HEFT-like, round-robin, random) on both apps.
func SchedulerComparison(seed int64) ([]SchedulerComparisonRow, error) {
	cluster := workload.Testbed()
	var rows []SchedulerComparisonRow
	for _, app := range workload.Apps() {
		for _, s := range sched.All(seed) {
			p, err := sched.Schedule(s, app, cluster)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(app, cluster, p, sim.Options{})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SchedulerComparisonRow{
				App: app.Name, Method: s.Name(),
				Energy: res.TotalEnergy, Makespan: res.Makespan,
			})
		}
	}
	return rows, nil
}

// FormatSchedulerComparison renders the scheduler ablation.
func FormatSchedulerComparison(rows []SchedulerComparisonRow) string {
	var b strings.Builder
	b.WriteString("Ablation: scheduling methods\n")
	fmt.Fprintf(&b, "%-18s %-20s %12s %14s\n", "App", "Method", "Energy [kJ]", "Makespan [s]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-20s %12.3f %14.1f\n", r.App, r.Method, r.Energy.Kilojoules(), r.Makespan)
	}
	return b.String()
}

// BandwidthSweepRow is one point of the regional-bandwidth sweep: where does
// exclusively-regional overtake exclusively-hub?
type BandwidthSweepRow struct {
	App              string
	RegionalBW       units.Bandwidth
	DeepEnergy       units.Joules
	RegionalEnergy   units.Joules
	HubEnergy        units.Joules
	RegionalBeatsHub bool
}

// BandwidthSweep scales the regional registry's links from 0.25× to 4× of
// the calibrated values and reports the crossover.
func BandwidthSweep(app string, factors []float64) ([]BandwidthSweepRow, error) {
	var rows []BandwidthSweepRow
	for _, f := range factors {
		cluster := workload.Testbed()
		for _, dev := range []string{workload.MediumNode, workload.SmallNode} {
			bw := cluster.Topology.Bandwidth(workload.RegionalNode, dev)
			if err := cluster.Topology.SetBandwidth(workload.RegionalNode, dev, bw*units.Bandwidth(f)); err != nil {
				return nil, err
			}
		}
		theApp := workload.VideoProcessing()
		if app == "text" {
			theApp = workload.TextProcessing()
		}
		row := BandwidthSweepRow{App: theApp.Name,
			RegionalBW: cluster.Topology.Bandwidth(workload.RegionalNode, workload.MediumNode)}
		for _, s := range []sched.Scheduler{sched.NewDEEP(), sched.NewExclusive("regional"), sched.NewExclusive("hub")} {
			p, err := sched.Schedule(s, theApp, cluster)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(theApp, cluster, p, sim.Options{})
			if err != nil {
				return nil, err
			}
			switch s.Name() {
			case "deep":
				row.DeepEnergy = res.TotalEnergy
			case "exclusive-regional":
				row.RegionalEnergy = res.TotalEnergy
			case "exclusive-hub":
				row.HubEnergy = res.TotalEnergy
			}
		}
		row.RegionalBeatsHub = row.RegionalEnergy < row.HubEnergy
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatBandwidthSweep renders the sweep.
func FormatBandwidthSweep(rows []BandwidthSweepRow) string {
	var b strings.Builder
	b.WriteString("Ablation: regional registry bandwidth sweep\n")
	fmt.Fprintf(&b, "%-18s %-14s %12s %14s %12s %s\n", "App", "Regional BW", "DEEP [kJ]", "Regional [kJ]", "Hub [kJ]", "regional wins")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-14s %12.3f %14.3f %12.3f %v\n",
			r.App, r.RegionalBW, r.DeepEnergy.Kilojoules(), r.RegionalEnergy.Kilojoules(), r.HubEnergy.Kilojoules(), r.RegionalBeatsHub)
	}
	return b.String()
}

// CacheAblationRow reports warm-vs-cold deployment cost.
type CacheAblationRow struct {
	App        string
	Run        int
	BytesCold  units.Bytes // bytes pulled this run
	DeployTime float64     // summed T_d
}

// CacheAblation runs the DEEP placement repeatedly with warm caches on a
// fresh testbed: the first run starts from its empty caches, and the second
// should pull nothing.
func CacheAblation(appName string, runs int) ([]CacheAblationRow, error) {
	cluster := workload.Testbed()
	app := workload.VideoProcessing()
	if appName == "text" {
		app = workload.TextProcessing()
	}
	s := sched.NewDEEP()
	p, err := sched.Schedule(s, app, cluster)
	if err != nil {
		return nil, err
	}
	var rows []CacheAblationRow
	for run := 0; run < runs; run++ {
		res, err := sim.Run(app, cluster, p, sim.Options{WarmCaches: true})
		if err != nil {
			return nil, err
		}
		var pulled units.Bytes
		var td float64
		for _, m := range res.Microservices {
			pulled += m.BytesPulled
			td += m.DeployTime
		}
		rows = append(rows, CacheAblationRow{App: app.Name, Run: run, BytesCold: pulled, DeployTime: td})
	}
	return rows, nil
}

// FormatCacheAblation renders the cache study.
func FormatCacheAblation(rows []CacheAblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: layer cache across repeated deployments\n")
	fmt.Fprintf(&b, "%-18s %-5s %-12s %s\n", "App", "Run", "Pulled", "ΣT_d [s]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-5d %-12s %.1f\n", r.App, r.Run, r.BytesCold, r.DeployTime)
	}
	return b.String()
}

// ContentionRow quantifies what shared-uplink awareness buys: the energy of
// a placement that ignores contention versus the Nash placement, on a
// cluster whose regional uplink is heavily shared.
type ContentionRow struct {
	App            string
	NashEnergy     units.Joules
	BlindEnergy    units.Joules
	PenaltyOfBlind float64 // percent
}

// ContentionAblation makes contention matter (regional links scaled down to
// a single busy server) and compares the Nash scheduler with greedy (which
// prices options as if it always pulled alone).
func ContentionAblation() ([]ContentionRow, error) {
	var rows []ContentionRow
	for _, appName := range []string{"video", "text"} {
		cluster := workload.Testbed()
		// A slow shared regional server makes concurrent pulls painful.
		for _, dev := range []string{workload.MediumNode, workload.SmallNode} {
			if err := cluster.Topology.SetBandwidth(workload.RegionalNode, dev, 4*units.MBps); err != nil {
				return nil, err
			}
		}
		app := workload.VideoProcessing()
		if appName == "text" {
			app = workload.TextProcessing()
		}
		nashP, err := sched.Schedule(sched.NewDEEP(), app, cluster)
		if err != nil {
			return nil, err
		}
		nashRes, err := sim.Run(app, cluster, nashP, sim.Options{})
		if err != nil {
			return nil, err
		}
		blindP, err := sched.Schedule(sched.NewGreedyEnergy(), app, cluster)
		if err != nil {
			return nil, err
		}
		blindRes, err := sim.Run(app, cluster, blindP, sim.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ContentionRow{
			App:         app.Name,
			NashEnergy:  nashRes.TotalEnergy,
			BlindEnergy: blindRes.TotalEnergy,
			PenaltyOfBlind: 100 * (float64(blindRes.TotalEnergy) - float64(nashRes.TotalEnergy)) /
				float64(nashRes.TotalEnergy),
		})
	}
	return rows, nil
}

// FormatContentionAblation renders the contention study.
func FormatContentionAblation(rows []ContentionRow) string {
	var b strings.Builder
	b.WriteString("Ablation: congestion-aware (Nash) vs congestion-blind (greedy) registry selection\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %10s\n", "App", "Nash [kJ]", "Blind [kJ]", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12.3f %12.3f %9.2f%%\n", r.App, r.NashEnergy.Kilojoules(), r.BlindEnergy.Kilojoules(), r.PenaltyOfBlind)
	}
	return b.String()
}
