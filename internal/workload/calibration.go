package workload

import (
	"fmt"
	"math"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
)

// Calibration constants. The derivation (documented in DESIGN.md):
//
//   - Device speeds fix T_p: CPU(m_i) = TpMid · MediumSpeed, so the medium
//     device reproduces the published processing times and the small device
//     is 3× slower (i7-7700 vs. Raspberry Pi 4).
//   - The hub link has high CDN throughput but a fixed per-pull setup cost
//     (manifest resolution, auth, rate-limit token — several WAN round
//     trips); the regional registry is LAN-local with negligible setup but a
//     single server NIC (shared capacity). This makes the *hybrid* split an
//     equilibrium: large images amortize the hub's setup cost, small images
//     prefer the regional registry, and the Pi — sitting next to the
//     regional server — always prefers it.
//   - Dataflow sizes back out of the published completion times:
//     Size_ui = (CTMid − Td(hub→medium) − TpMid) · InterconnectBW.
//   - Per-(microservice, device) processing power backs out of the
//     published energy: P = (ECMid − P_transfer·(Td+Tc)) / Tp. The medium
//     device's transfer power is tiny because pyRAPL prices only the CPU
//     package while it idles on I/O; the small device's wall-socket meter
//     sees the whole board.
const (
	MediumSpeed units.MIPS = 30000 // effective MI/s of the i7-7700
	SmallSpeed  units.MIPS = 10000 // effective MI/s of the Raspberry Pi 4

	HubMediumBW  = 25 * units.MBps
	HubSmallBW   = 23 * units.MBps
	HubSetupTime = 1.0 // seconds per pull (CDN/auth round trips)

	RegionalMediumBW  = 22 * units.MBps
	RegionalSmallBW   = 24 * units.MBps
	RegionalSetupTime = 0.1 // seconds per pull (LAN)

	InterconnectBW = 12 * units.MBps // medium <-> small and source links

	MediumIdleW     units.Watts = 0.25
	MediumTransferW units.Watts = 0.3
	SmallIdleW      units.Watts = 0.9
	SmallTransferW  units.Watts = 2.0
)

// Node names of the testbed topology.
const (
	HubNode      = "hub"
	RegionalNode = "regional"
	MediumNode   = "medium"
	SmallNode    = "small"
	SourceNode   = "source"
)

// Derived holds every calibrated quantity for one microservice.
type Derived struct {
	Row       BenchRow
	CPU       units.MI    // processing load
	InputSize units.Bytes // total input dataflow (edge or external)

	ProcWMedium units.Watts // calibrated processing power on the medium device
	ProcWSmall  units.Watts // calibrated processing power on the small device
}

// Derive computes the calibrated model parameters for a Table II row.
func Derive(r BenchRow) Derived {
	tpMid := r.TpMid()
	cpu := units.MI(tpMid * float64(MediumSpeed))
	sizeBytes := units.Bytes(math.Round(r.SizeGB * float64(units.GB)))

	tdHubMedium := HubSetupTime + HubMediumBW.Seconds(sizeBytes)
	tc := r.CTMid() - tdHubMedium - tpMid
	if tc < 0 {
		tc = 0
	}
	input := units.Bytes(math.Round(tc * float64(InterconnectBW)))

	// Transfer times as seen by each device in the standalone benchmark
	// configuration (pull from the hub, input from the source node).
	tcSeconds := InterconnectBW.Seconds(input)
	tdHubSmall := HubSetupTime + HubSmallBW.Seconds(sizeBytes)

	procWMed := units.Watts((r.ECMedMid() - float64(MediumTransferW)*(tdHubMedium+tcSeconds)) / tpMid)
	tpSmall := SmallSpeed.Seconds(cpu)
	procWSmall := units.Watts((r.ECSmallMid() - float64(SmallTransferW)*(tdHubSmall+tcSeconds)) / tpSmall)

	return Derived{
		Row: r, CPU: cpu, InputSize: input,
		ProcWMedium: procWMed, ProcWSmall: procWSmall,
	}
}

// powerModels builds the calibrated TableModel for each device covering both
// applications. Microservice names are qualified as "<app>/<name>" to keep
// the two ha-train entries apart.
func powerModels() (medium, small energy.TableModel) {
	medium = energy.TableModel{
		Fallback:  energy.LinearModel{StaticW: MediumIdleW, PullW: MediumTransferW - MediumIdleW, ReceiveW: MediumTransferW - MediumIdleW, ProcessingW: 20},
		ProcessW:  make(map[string]units.Watts),
		TransferW: make(map[string]units.Watts),
	}
	small = energy.TableModel{
		Fallback:  energy.LinearModel{StaticW: SmallIdleW, PullW: SmallTransferW - SmallIdleW, ReceiveW: SmallTransferW - SmallIdleW, ProcessingW: 5},
		ProcessW:  make(map[string]units.Watts),
		TransferW: make(map[string]units.Watts),
	}
	for _, r := range TableII {
		d := Derive(r)
		key := r.App + "/" + r.Name
		medium.ProcessW[key] = d.ProcWMedium
		medium.TransferW[key] = MediumTransferW
		small.ProcessW[key] = d.ProcWSmall
		small.TransferW[key] = SmallTransferW
	}
	return medium, small
}

// Testbed builds the calibrated two-device cluster of the paper's Section
// IV-A: the medium Intel device, the small ARM device, Docker Hub, the
// MinIO-backed regional registry, and the interconnecting network.
func Testbed() *sim.Cluster {
	mediumPM, smallPM := powerModels()
	medium := device.New(MediumNode, dag.AMD64, 8, MediumSpeed, 16*units.GB, 64*units.GB, mediumPM)
	small := device.New(SmallNode, dag.ARM64, 4, SmallSpeed, 8*units.GB, 32*units.GB, smallPM)

	topo := netsim.NewTopology()
	for _, n := range []string{HubNode, RegionalNode, MediumNode, SmallNode, SourceNode} {
		topo.AddNode(n)
	}
	mustLink := func(l netsim.Link) {
		if err := topo.AddLink(l); err != nil {
			panic(fmt.Sprintf("workload: testbed topology: %v", err))
		}
	}
	mustLink(netsim.Link{From: HubNode, To: MediumNode, BW: HubMediumBW, RTT: HubSetupTime})
	mustLink(netsim.Link{From: HubNode, To: SmallNode, BW: HubSmallBW, RTT: HubSetupTime})
	mustLink(netsim.Link{From: RegionalNode, To: MediumNode, BW: RegionalMediumBW, RTT: RegionalSetupTime, SharedCapacity: true})
	mustLink(netsim.Link{From: RegionalNode, To: SmallNode, BW: RegionalSmallBW, RTT: RegionalSetupTime, SharedCapacity: true})
	if err := topo.AddDuplex(MediumNode, SmallNode, InterconnectBW); err != nil {
		panic(err)
	}
	mustLink(netsim.Link{From: SourceNode, To: MediumNode, BW: InterconnectBW})
	mustLink(netsim.Link{From: SourceNode, To: SmallNode, BW: InterconnectBW})

	return &sim.Cluster{
		Devices: []*device.Device{medium, small},
		Registries: []sim.RegistryInfo{
			{Name: "hub", Node: HubNode},
			{Name: "regional", Node: RegionalNode, Shared: true},
		},
		Topology:   topo,
		SourceNode: SourceNode,
	}
}

// buildApp assembles one case-study DAG from Table II rows plus the edge
// structure of Figure 2.
func buildApp(appName string, edges [][2]string, source string) *dag.App {
	b := dag.Builder{Name: appName}
	derived := make(map[string]Derived)
	for _, r := range Rows(appName) {
		d := Derive(r)
		derived[r.Name] = d
		ref, _ := CatalogRef(appName, r.Name)
		m := dag.Microservice{
			Name:      appName + "/" + r.Name,
			ImageSize: units.Bytes(math.Round(r.SizeGB * float64(units.GB))),
			Images: map[string]string{
				"hub":      ref.Hub,
				"regional": ref.Regional,
			},
			Req: dag.Requirements{
				Cores:   coresFor(r.Name),
				CPU:     d.CPU,
				Memory:  memoryFor(r.Name),
				Storage: d.InputSize,
			},
			Arches: []dag.Arch{dag.AMD64, dag.ARM64},
		}
		if r.Name == source {
			m.ExternalInput = d.InputSize
		}
		if err := b.Microservice(m); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	}
	for _, e := range edges {
		// The edge is sized by the *consumer's* input-budget so its
		// completion time matches Table II.
		size := derived[e[1]].InputSize
		if err := b.Dataflow(appName+"/"+e[0], appName+"/"+e[1], size); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	}
	a, err := b.App()
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return a
}

func coresFor(name string) int {
	switch name {
	case "ha-train", "la-train":
		return 2
	default:
		return 1
	}
}

func memoryFor(name string) units.Bytes {
	switch name {
	case "ha-train", "la-train":
		return 2 * units.GB
	default:
		return units.GB
	}
}

// VideoProcessing builds the video pipeline of Figure 2a: transcode → frame
// → {LA,HA} train → {LA,HA} infer, with the camera feed as external input.
func VideoProcessing() *dag.App {
	return buildApp("video", [][2]string{
		{"transcode", "frame"},
		{"frame", "la-train"},
		{"frame", "ha-train"},
		{"la-train", "la-infer"},
		{"ha-train", "ha-infer"},
	}, "transcode")
}

// TextProcessing builds the text pipeline of Figure 2b: retrieve →
// decompress → {HA,LA} train → {HA,LA} score, with the S3 dataset as
// external input.
func TextProcessing() *dag.App {
	return buildApp("text", [][2]string{
		{"retrieve", "decompress"},
		{"decompress", "ha-train"},
		{"decompress", "la-train"},
		{"ha-train", "ha-score"},
		{"la-train", "la-score"},
	}, "retrieve")
}

// PaperPlacement returns the Table III placement for an application built by
// VideoProcessing or TextProcessing.
func PaperPlacement(appName string) sim.Placement {
	expected := TableIII[appName]
	p := make(sim.Placement, len(expected))
	for name, devReg := range expected {
		p[appName+"/"+name] = sim.Assignment{Device: devReg[0], Registry: devReg[1]}
	}
	return p
}

// Apps returns both case studies.
func Apps() []*dag.App {
	return []*dag.App{VideoProcessing(), TextProcessing()}
}
