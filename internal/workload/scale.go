package workload

import (
	"fmt"

	"deep/internal/device"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
)

// ScaledTestbed replicates the calibrated testbed's device pair n times:
// medium-00/small-00 … medium-(n-1)/small-(n-1), all sharing Docker Hub, the
// single regional registry (whose uplink capacity is divided among
// concurrent pulls, so contention grows with the fleet), and the source
// node. Every medium↔small pair and every inter-pair device link uses the
// calibrated interconnect bandwidth. ScaledTestbed(1) is topologically the
// paper's testbed with suffixed device names.
func ScaledTestbed(n int) *sim.Cluster {
	if n < 1 {
		n = 1
	}
	mediumPM, smallPM := powerModels()

	topo := netsim.NewTopology()
	for _, node := range []string{HubNode, RegionalNode, SourceNode} {
		topo.AddNode(node)
	}
	mustLink := func(l netsim.Link) {
		if err := topo.AddLink(l); err != nil {
			panic(fmt.Sprintf("workload: scaled testbed topology: %v", err))
		}
	}

	var devices []*device.Device
	var names []string
	for i := 0; i < n; i++ {
		medName := fmt.Sprintf("%s-%02d", MediumNode, i)
		smallName := fmt.Sprintf("%s-%02d", SmallNode, i)
		devices = append(devices,
			device.MediumIntelSpec(mediumPM).WithName(medName),
			device.SmallARMSpec(smallPM).WithName(smallName),
		)
		topo.AddNode(medName)
		topo.AddNode(smallName)
		mustLink(netsim.Link{From: HubNode, To: medName, BW: HubMediumBW, RTT: HubSetupTime})
		mustLink(netsim.Link{From: HubNode, To: smallName, BW: HubSmallBW, RTT: HubSetupTime})
		mustLink(netsim.Link{From: RegionalNode, To: medName, BW: RegionalMediumBW, RTT: RegionalSetupTime, SharedCapacity: true})
		mustLink(netsim.Link{From: RegionalNode, To: smallName, BW: RegionalSmallBW, RTT: RegionalSetupTime, SharedCapacity: true})
		mustLink(netsim.Link{From: SourceNode, To: medName, BW: InterconnectBW})
		mustLink(netsim.Link{From: SourceNode, To: smallName, BW: InterconnectBW})
		names = append(names, medName, smallName)
	}
	// Full mesh over the devices at the calibrated interconnect bandwidth:
	// dataflows may cross pairs once the scheduler spreads an app out.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if err := topo.AddDuplex(names[i], names[j], InterconnectBW); err != nil {
				panic(fmt.Sprintf("workload: scaled testbed topology: %v", err))
			}
		}
	}

	return &sim.Cluster{
		Devices: devices,
		Registries: []sim.RegistryInfo{
			{Name: "hub", Node: HubNode},
			{Name: "regional", Node: RegionalNode, Shared: true},
		},
		Topology:   topo,
		SourceNode: SourceNode,
	}
}

// ContendedTestbed is ScaledTestbed(n) with every device's Docker Hub link
// slowed to 10 MB/s, so the shared regional registry is the better source
// for every image and a wide stage's pulls meet on its uplink. On the
// calibrated links Hub pulls are fast enough that no stage's pulls contend.
func ContendedTestbed(n int) *sim.Cluster {
	c := ScaledTestbed(n)
	for _, d := range c.Devices {
		if err := c.Topology.SetBandwidth(HubNode, d.Name, 10*units.MBps); err != nil {
			panic(fmt.Sprintf("workload: contended testbed: %v", err))
		}
	}
	return c
}
