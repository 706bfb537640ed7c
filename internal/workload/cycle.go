package workload

import (
	"fmt"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
)

// CyclingStage builds a small application and cluster whose second stage is
// a three-player game that best-response dynamics never settle: the worked
// counter-example to "these congestion-style payoffs always converge".
//
// The stage {a, b, c} follows a solo "ingest". Core and memory requirements
// pin a to d1, b to d2 and c to d3, and each device reaches two of three
// shared registries, so every player has exactly two strategies:
//
//	a on d1: r0 (2 s/image, 7 s setup)   r1 (4 s/image, 4 s setup)
//	b on d2: r1 (3 s/image, 8 s setup)   r2 (5 s/image, 5 s setup)
//	c on d3: r0 (6 s/image, 0 s setup)   r2 (2 s/image, 5 s setup)
//
// A pull's time is setup + n × (s/image), n the number of devices pulling
// from that registry. The costs are player-specific — the same registry is
// cheap for one device and dear for another — which is what breaks the
// potential-game argument. From the schedulers' start (everyone on their
// first option) sequential best responses visit (r0, r2, r2) → (r1, r1, r0)
// → (r0, r2, r2) → … with every move worth at least a joule, so no
// tolerance hides the cycle. The game does have pure equilibria — (r1, r2,
// r0) is one: the three players alone on three registries — the dynamics
// just never reach them.
func CyclingStage() (*dag.App, *sim.Cluster) {
	const image = units.GB
	perImage := func(seconds float64) units.Bandwidth {
		return units.Bandwidth(float64(image) / seconds)
	}
	pm := energy.LinearModel{PullW: 1, ReceiveW: 1, ProcessingW: 1}

	topo := netsim.NewTopology()
	for _, n := range []string{"n0", "n1", "n2", "d1", "d2", "d3"} {
		topo.AddNode(n)
	}
	for _, l := range []netsim.Link{
		{From: "n0", To: "d1", BW: perImage(2), RTT: 7, SharedCapacity: true},
		{From: "n1", To: "d1", BW: perImage(4), RTT: 4, SharedCapacity: true},
		{From: "n1", To: "d2", BW: perImage(3), RTT: 8, SharedCapacity: true},
		{From: "n2", To: "d2", BW: perImage(5), RTT: 5, SharedCapacity: true},
		{From: "n0", To: "d3", BW: perImage(6), RTT: 0, SharedCapacity: true},
		{From: "n2", To: "d3", BW: perImage(2), RTT: 5, SharedCapacity: true},
	} {
		if err := topo.AddLink(l); err != nil {
			panic(fmt.Sprintf("workload: cycling stage topology: %v", err))
		}
	}
	for _, pair := range [][2]string{{"d1", "d2"}, {"d1", "d3"}, {"d2", "d3"}} {
		if err := topo.AddDuplex(pair[0], pair[1], InterconnectBW); err != nil {
			panic(fmt.Sprintf("workload: cycling stage topology: %v", err))
		}
	}
	cluster := &sim.Cluster{
		Devices: []*device.Device{
			device.New("d1", dag.AMD64, 8, 10000, 1*units.GB, 64*units.GB, pm),
			device.New("d2", dag.AMD64, 4, 10000, 4*units.GB, 64*units.GB, pm),
			device.New("d3", dag.AMD64, 1, 10000, 16*units.GB, 64*units.GB, pm),
		},
		Registries: []sim.RegistryInfo{
			{Name: "r0", Node: "n0", Shared: true},
			{Name: "r1", Node: "n1", Shared: true},
			{Name: "r2", Node: "n2", Shared: true},
		},
		Topology: topo,
	}

	b := dag.Builder{Name: "cycling-stage"}
	for _, m := range []struct {
		name  string
		cores int
		mem   units.Bytes
	}{
		{"ingest", 1, units.GB},
		{"a", 8, units.GB},      // only d1 has the cores
		{"b", 4, 4 * units.GB},  // d1 lacks the memory, d3 the cores
		{"c", 1, 16 * units.GB}, // only d3 has the memory
	} {
		if err := b.Microservice(dag.Microservice{
			Name:      m.name,
			ImageSize: image,
			Req:       dag.Requirements{Cores: m.cores, CPU: 10_000, Memory: m.mem},
		}); err != nil {
			panic(fmt.Sprintf("workload: cycling stage app: %v", err))
		}
	}
	for _, to := range []string{"a", "b", "c"} {
		if err := b.Dataflow("ingest", to, units.MB); err != nil {
			panic(fmt.Sprintf("workload: cycling stage app: %v", err))
		}
	}
	app, err := b.App()
	if err != nil {
		panic(fmt.Sprintf("workload: cycling stage app: %v", err))
	}
	return app, cluster
}
