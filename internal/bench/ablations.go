package bench

import (
	"fmt"
	"strings"

	"deep/internal/dag"
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
// a placement that ignores contention versus the Nash placement, for one app
// on one cluster.
type ContentionRow struct {
	App            string
	Cluster        string
	NashEnergy     units.Joules
	BlindEnergy    units.Joules
	PenaltyOfBlind float64 // percent
}

// ContentionAblation compares the Nash scheduler with greedy, which prices
// options as if it always pulled alone. The paper's two case studies run on
// the testbed with its regional links slowed to one busy server: every pull
// then comes from Docker Hub, whose links no two pulls share, so greedy
// places them as DEEP does. A wide synthetic app (12 microservices, stages up
// to 4 wide) runs on contended testbeds, where its stages' pulls meet on the
// regional registry's uplink.
func ContentionAblation() ([]ContentionRow, error) {
	type study struct {
		app     *dag.App
		cluster *sim.Cluster
		name    string
	}
	var studies []study
	for _, app := range []*dag.App{workload.VideoProcessing(), workload.TextProcessing()} {
		cluster := workload.Testbed()
		for _, dev := range []string{workload.MediumNode, workload.SmallNode} {
			if err := cluster.Topology.SetBandwidth(workload.RegionalNode, dev, 4*units.MBps); err != nil {
				return nil, err
			}
		}
		studies = append(studies, study{app, cluster, "testbed, slow regional"})
	}
	cfg := workload.DefaultGeneratorConfig(12, 7)
	cfg.StageWidth = 4
	wide, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 2, 4} {
		studies = append(studies, study{wide, workload.ContendedTestbed(n), fmt.Sprintf("contended x%d", n)})
	}

	var rows []ContentionRow
	for _, s := range studies {
		nash, err := scheduledEnergy(sched.NewDEEP(), s.app, s.cluster)
		if err != nil {
			return nil, err
		}
		blind, err := scheduledEnergy(sched.NewGreedyEnergy(), s.app, s.cluster)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ContentionRow{
			App:            s.app.Name,
			Cluster:        s.name,
			NashEnergy:     nash,
			BlindEnergy:    blind,
			PenaltyOfBlind: 100 * (float64(blind) - float64(nash)) / float64(nash),
		})
	}
	return rows, nil
}

// scheduledEnergy is the simulated energy of the app placed by s.
func scheduledEnergy(s sched.Scheduler, app *dag.App, cluster *sim.Cluster) (units.Joules, error) {
	p, err := sched.Schedule(s, app, cluster)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(app, cluster, p, sim.Options{})
	if err != nil {
		return 0, err
	}
	return res.TotalEnergy, nil
}

// FormatContentionAblation renders the contention study.
func FormatContentionAblation(rows []ContentionRow) string {
	var b strings.Builder
	b.WriteString("Ablation: congestion-aware (Nash) vs congestion-blind (greedy) registry selection\n")
	fmt.Fprintf(&b, "%-18s %-24s %12s %12s %10s\n", "App", "Cluster", "Nash [kJ]", "Blind [kJ]", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-24s %12.3f %12.3f %9.2f%%\n", r.App, r.Cluster, r.NashEnergy.Kilojoules(), r.BlindEnergy.Kilojoules(), r.PenaltyOfBlind)
	}
	b.WriteString("The case studies read 0.00 %: every pull comes from Docker Hub, which no two\npulls share, so greedy places them as DEEP does. Only wide stages on a\ncontended registry show what the game buys.\n")
	return b.String()
}
