package workload

import (
	"testing"

	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
)

func TestCloudTestbedShape(t *testing.T) {
	c := CloudTestbed(15 * units.MBps)
	if len(c.Devices) != 3 {
		t.Fatalf("devices = %d", len(c.Devices))
	}
	cloud := c.Device(CloudNode)
	if cloud == nil {
		t.Fatal("no cloud device")
	}
	if cloud.Speed <= c.Device(MediumNode).Speed {
		t.Error("cloud should be faster than the medium edge device")
	}
	for _, reg := range []string{HubNode, RegionalNode} {
		if _, ok := c.Topology.LinkBetween(reg, CloudNode); !ok {
			t.Errorf("no link %s -> cloud", reg)
		}
	}
}

// With a reasonable WAN the Nash scheduler offloads the compute-heavy
// training stages to the cloud; with a starved WAN everything stays at the
// edge — the cloud-edge trade-off the paper's future work targets.
func TestCloudOffloadTradeoff(t *testing.T) {
	app := TextProcessing()

	fast := CloudTestbed(15 * units.MBps)
	pFast, err := sched.Schedule(sched.NewDEEP(), app, fast)
	if err != nil {
		t.Fatal(err)
	}
	offloaded := 0
	for _, a := range pFast {
		if a.Device == CloudNode {
			offloaded++
		}
	}
	if offloaded == 0 {
		t.Error("fast WAN: expected at least one microservice offloaded to the cloud")
	}
	trainOffloaded := pFast["text/ha-train"].Device == CloudNode || pFast["text/la-train"].Device == CloudNode
	if !trainOffloaded {
		t.Errorf("fast WAN: training should be cloud-worthy, got %v", pFast)
	}
	// Retrieve stays at the edge: its energy is transfer-dominated and the
	// dataset crosses the WAN otherwise.
	if pFast["text/retrieve"].Device == CloudNode {
		t.Error("fast WAN: retrieve should stay at the edge")
	}

	slow := CloudTestbed(unitsMBps(1))
	pSlow, err := sched.Schedule(sched.NewDEEP(), app, slow)
	if err != nil {
		t.Fatal(err)
	}
	for ms, a := range pSlow {
		if a.Device == CloudNode {
			t.Errorf("slow WAN: %s offloaded to cloud", ms)
		}
	}
}

func unitsMBps(f float64) units.Bandwidth { return units.Bandwidth(f) * units.MBps }

// Offloading must actually reduce simulated energy relative to the
// edge-only placement when the scheduler chooses it.
func TestCloudOffloadSavesEnergy(t *testing.T) {
	app := TextProcessing()
	cluster := CloudTestbed(15 * units.MBps)

	pCloud, err := sched.Schedule(sched.NewDEEP(), app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	resCloud, err := sim.Run(app, cluster, pCloud, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Edge-only: the paper's Table III placement on the same 3-device
	// cluster.
	resEdge, err := sim.Run(app, cluster, PaperPlacement("text"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resCloud.TotalEnergy >= resEdge.TotalEnergy {
		t.Errorf("cloud offload did not help: %v vs edge-only %v", resCloud.TotalEnergy, resEdge.TotalEnergy)
	}
}

// The video pipeline's huge interstage dataflows should keep training at
// the edge even over the default WAN: moving 10+ GB of frames across
// 15 MB/s costs more than the compute savings.
func TestCloudVideoStaysMostlyEdge(t *testing.T) {
	app := VideoProcessing()
	cluster := CloudTestbed(15 * units.MBps)
	p, err := sched.Schedule(sched.NewDEEP(), app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(app, cluster, p, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	edgeOnly, err := sim.Run(app, cluster, PaperPlacement("video"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.TotalEnergy) > float64(edgeOnly.TotalEnergy)*1.0001 {
		t.Errorf("cloud-aware schedule worse than edge-only: %v vs %v", res.TotalEnergy, edgeOnly.TotalEnergy)
	}
}
