// Customapp shows how a downstream user brings their own dataflow
// application and infrastructure: a five-stage IoT analytics pipeline on a
// three-device cluster, swept across regional-registry bandwidths to find
// where the hybrid strategy stops mattering — then deploys several
// application variants onto one cluster over a single compiled
// deep.ClusterTable (the multi-app-per-cluster fast path), and finally one
// application across several sites over a single compiled deep.AppTable
// (the mirror image: one-app-many-clusters).
package main

import (
	"fmt"
	"log"

	"deep"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/units"
)

func buildApp() *deep.App { return buildAppScaled("iot-analytics", 1) }

// buildAppScaled builds the pipeline with its processing loads scaled —
// lighter and heavier variants of the same shape, as one tenant might deploy
// across editions.
func buildAppScaled(name string, mult float64) *deep.App {
	b := deep.AppBuilder{Name: name}
	stages := []struct {
		name  string
		image deep.Bytes
		cpu   float64 // MI
		input deep.Bytes
	}{
		{"ingest", 120 * deep.MB, 300000, 900 * deep.MB},
		{"clean", 350 * deep.MB, 600000, 0},
		{"features", 900 * deep.MB, 1500000, 0},
		{"model", 2200 * deep.MB, 4200000, 0},
		{"publish", 150 * deep.MB, 150000, 0},
	}
	for _, s := range stages {
		err := b.Microservice(deep.Microservice{
			Name:      s.name,
			ImageSize: s.image,
			Req: deep.Requirements{
				Cores: 1, CPU: units.MI(s.cpu * mult), Memory: deep.GB,
			},
			Arches:        []deep.Arch{deep.AMD64, deep.ARM64},
			ExternalInput: s.input,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	edges := [][2]string{{"ingest", "clean"}, {"clean", "features"}, {"features", "model"}, {"model", "publish"}}
	for _, e := range edges {
		if err := b.Dataflow(e[0], e[1], 400*deep.MB); err != nil {
			log.Fatal(err)
		}
	}
	app, err := b.App()
	if err != nil {
		log.Fatal(err)
	}
	return app
}

func buildCluster(regionalBW units.Bandwidth) *deep.Cluster {
	pmBig := energy.LinearModel{StaticW: 2, PullW: 1, ReceiveW: 1, ProcessingW: 35}
	pmMid := energy.LinearModel{StaticW: 1, PullW: 1, ReceiveW: 1, ProcessingW: 12}
	pmPi := energy.LinearModel{StaticW: 0.9, PullW: 1.1, ReceiveW: 1.1, ProcessingW: 4}

	big := device.New("gateway", deep.AMD64, 16, 60000, 32*deep.GB, 256*deep.GB, pmBig)
	mid := device.New("cabinet", deep.AMD64, 8, 25000, 16*deep.GB, 128*deep.GB, pmMid)
	pi := device.New("sensor-hub", deep.ARM64, 4, 8000, 8*deep.GB, 32*deep.GB, pmPi)

	topo := netsim.NewTopology()
	for _, n := range []string{"hub", "regional", "gateway", "cabinet", "sensor-hub", "source"} {
		topo.AddNode(n)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	for _, dev := range []string{"gateway", "cabinet", "sensor-hub"} {
		must(topo.AddLink(netsim.Link{From: "hub", To: dev, BW: 30 * units.MBps, RTT: 1.2}))
		must(topo.AddLink(netsim.Link{From: "regional", To: dev, BW: regionalBW, RTT: 0.1, SharedCapacity: true}))
		must(topo.AddLink(netsim.Link{From: "source", To: dev, BW: 15 * units.MBps}))
	}
	must(topo.AddDuplex("gateway", "cabinet", 40*units.MBps))
	must(topo.AddDuplex("cabinet", "sensor-hub", 15*units.MBps))
	must(topo.AddDuplex("gateway", "sensor-hub", 15*units.MBps))

	return &deep.Cluster{
		Devices: []*device.Device{big, mid, pi},
		Registries: []deep.RegistryInfo{
			{Name: "hub", Node: "hub"},
			{Name: "regional", Node: "regional", Shared: true},
		},
		Topology:   topo,
		SourceNode: "source",
	}
}

func main() {
	app := buildApp()
	fmt.Println("Sweep: regional registry bandwidth vs deployment method energy")
	fmt.Printf("%-14s %12s %14s %12s %s\n", "regional BW", "DEEP [kJ]", "regional [kJ]", "hub [kJ]", "DEEP placement uses")
	for _, bw := range []units.Bandwidth{5 * units.MBps, 15 * units.MBps, 30 * units.MBps, 60 * units.MBps} {
		cluster := buildCluster(bw)
		sys := deep.NewSystem(cluster)
		results, err := sys.Compare(app, []deep.Scheduler{
			deep.NewDEEPScheduler(),
			deep.NewExclusiveScheduler("regional"),
			deep.NewExclusiveScheduler("hub"),
		})
		if err != nil {
			log.Fatal(err)
		}
		var deepKJ, regKJ, hubKJ float64
		usage := map[string]int{}
		for _, r := range results {
			switch r.Method {
			case "deep":
				deepKJ = r.Result.TotalEnergy.Kilojoules()
				for _, a := range r.Placement {
					usage[a.Registry]++
				}
			case "exclusive-regional":
				regKJ = r.Result.TotalEnergy.Kilojoules()
			case "exclusive-hub":
				hubKJ = r.Result.TotalEnergy.Kilojoules()
			}
		}
		fmt.Printf("%-14s %12.3f %14.3f %12.3f hub=%d regional=%d\n",
			bw, deepKJ, regKJ, hubKJ, usage["hub"], usage["regional"])
	}

	multiAppOneCluster()
	oneAppManyClusters()
}

// multiAppOneCluster deploys several application variants onto one cluster
// over a single compiled ClusterTable: the cluster-side substrate (sorted
// name tables, interned devices, the dense link tables) is compiled once,
// and each app pays only its own app-side plan compile — the same reuse the
// fleet gets automatically from its cluster-digest-keyed table cache.
func multiAppOneCluster() {
	cluster := buildCluster(15 * units.MBps)
	table := deep.CompileClusterTable(cluster)
	exec := deep.NewSimExec()

	fmt.Println("\nMulti-app reuse: one ClusterTable, three pipeline variants")
	fmt.Printf("%-16s %12s %12s\n", "app", "makespan [s]", "energy [kJ]")
	scheduler := deep.NewDEEPScheduler()
	var best *deep.Result
	bestName := ""
	for _, scale := range []struct {
		name string
		mult float64
	}{
		{"iot-analytics", 1},
		{"iot-lite", 0.5},
		{"iot-heavy", 2},
	} {
		at := deep.CompileAppTable(buildAppScaled(scale.name, scale.mult))
		// Both the scheduler's cost model and the simulator's plan compile
		// only their app-side passes here — the cluster topology scan
		// happened once, in CompileClusterTable above.
		placement, err := deep.ScheduleOnTables(scheduler, at, cluster, table)
		if err != nil {
			log.Fatal(err)
		}
		plan := deep.CompileSimPlanOnTables(at, cluster, table)
		// Cold runs (the default starts from empty layer caches and leaves
		// the cluster's alone) keep the rows comparable as standalone
		// per-variant costs, whatever the order.
		res, err := exec.Run(plan, placement, deep.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %12.1f %12.3f\n", scale.name, res.Makespan, res.TotalEnergy.Kilojoules())
		if best == nil || res.TotalEnergy < best.TotalEnergy {
			// res belongs to exec and is overwritten by its next Run;
			// Clone keeps this one.
			best, bestName = res.Clone(), scale.name
		}
	}
	fmt.Printf("lowest energy: %s (%.1f s, %.3f kJ)\n", bestName, best.Makespan, best.TotalEnergy.Kilojoules())
}

// oneAppManyClusters is the mirror of multiAppOneCluster: one pipeline
// rolled out across several sites. The application-side substrate —
// validated structure, interned names, topo/stage/edge rows, per-service
// scalars — is compiled once with CompileAppTable; each site then pays only
// its own cluster-side compile, and scheduling plus simulation run as thin
// passes over the (AppTable, ClusterTable) pair. The fleet gets the same
// reuse automatically from its app-digest-keyed table cache.
func oneAppManyClusters() {
	at := deep.CompileAppTable(buildApp())
	exec := deep.NewSimExec()
	scheduler := deep.NewDEEPScheduler()

	fmt.Println("\nMulti-cluster reuse: one AppTable, four sites")
	fmt.Printf("%-14s %12s %12s\n", "site BW", "makespan [s]", "energy [kJ]")
	for _, bw := range []units.Bandwidth{5 * units.MBps, 15 * units.MBps, 30 * units.MBps, 60 * units.MBps} {
		cluster := buildCluster(bw)
		table := deep.CompileClusterTable(cluster)
		placement, err := deep.ScheduleOnTables(scheduler, at, cluster, table)
		if err != nil {
			log.Fatal(err)
		}
		plan := deep.CompileSimPlanOnTables(at, cluster, table)
		res, err := exec.Run(plan, placement, deep.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.1f %12.3f\n", bw, res.Makespan, res.TotalEnergy.Kilojoules())
	}
}
