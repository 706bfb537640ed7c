package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/device"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// The link alphabets of fuzzTwinCluster have few values, so that devices
// often agree on every link and become twins. 0 is "no link": a registry may
// not reach a device, and neither may another device or the source, so an
// upstream's dataflow may never arrive and options price at +Inf.
var (
	registryBandwidths = [...]units.Bandwidth{25 * units.MBps, 8 * units.MBps, 12 * units.MBps, 0}
	meshBandwidths     = [...]units.Bandwidth{12 * units.MBps, 8 * units.MBps, 12 * units.MBps, 25 * units.MBps, 0}
)

// mesh picks a device or source link from meshBandwidths.
func mesh(b byte) units.Bandwidth { return meshBandwidths[int(b)%len(meshBandwidths)] }

// fuzzTwinCluster decodes bytes into a small cluster and a generated app's
// config: a byte each for the device count (2 to 6), the app's size (2 to 8
// microservices), its stage width (1 to 4) and its seed; then a byte per
// device choosing its spec (medium or small), its hub and regional links
// from registryBandwidths (bits 1-2 and 3-4) and its source link from
// meshBandwidths (bits 5-7); then a byte per device pair choosing the link
// each way from meshBandwidths (the low four bits, and the same back unless
// bit 4 is set, when bits 5-7 choose it). Bytes that run out read as zero: a
// medium device with the first link of each alphabet, symmetric links.
func fuzzTwinCluster(data []byte) (*sim.Cluster, workload.GeneratorConfig, bool) {
	if len(data) < 4 {
		return nil, workload.GeneratorConfig{}, false
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nd := 2 + int(next()%5)
	cfg := workload.DefaultGeneratorConfig(2+int(next()%7), 0)
	cfg.StageWidth = 1 + int(next()%4)
	cfg.Seed = int64(next())

	ref := workload.ScaledTestbed(1) // the two specs' power models
	top := netsim.NewTopology()
	for _, node := range []string{workload.HubNode, workload.RegionalNode, workload.SourceNode} {
		top.AddNode(node)
	}
	link := func(from, to string, bw units.Bandwidth, shared bool) {
		if bw > 0 {
			if err := top.AddLink(netsim.Link{From: from, To: to, BW: bw, RTT: 0.5, SharedCapacity: shared}); err != nil {
				panic(err)
			}
		}
	}
	c := &sim.Cluster{
		Registries: []sim.RegistryInfo{
			{Name: "hub", Node: workload.HubNode},
			{Name: "regional", Node: workload.RegionalNode, Shared: true},
		},
		Topology:   top,
		SourceNode: workload.SourceNode,
	}
	for i := range nd {
		b := next()
		name := fmt.Sprintf("dev-%d", i)
		spec := device.MediumIntelSpec(ref.Devices[0].Power)
		if b&1 != 0 {
			spec = device.SmallARMSpec(ref.Devices[1].Power)
		}
		c.Devices = append(c.Devices, spec.WithName(name))
		top.AddNode(name)
		link(workload.HubNode, name, registryBandwidths[b>>1&3], false)
		link(workload.RegionalNode, name, registryBandwidths[b>>3&3], true)
		link(workload.SourceNode, name, mesh(b>>5), false)
	}
	for i := range nd {
		for j := i + 1; j < nd; j++ {
			b := next()
			back := b & 0x0f
			if b&0x10 != 0 {
				back = b >> 5
			}
			link(c.Devices[i].Name, c.Devices[j].Name, mesh(b&0x0f), false)
			link(c.Devices[j].Name, c.Devices[i].Name, mesh(back), false)
		}
	}
	return c, cfg, true
}

// FuzzTwinStagesMatchLegacy: on small random clusters where twins are
// common, DEEP over reduced rows places every microservice where the legacy
// port's full-row games do, fails exactly when it fails, and counts its
// stages as it does.
func FuzzTwinStagesMatchLegacy(f *testing.F) {
	f.Add([]byte{4, 6, 3, 1, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00})                   // six devices, three and three twins
	f.Add([]byte{0, 5, 1, 7})                                                       // two twins
	f.Add([]byte{1, 3, 2, 9, 0x00, 0x00, 0x00, 0x03, 0x11, 0x00})                   // asymmetric and unequal links split the twins
	f.Add([]byte{4, 6, 2, 3, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x02, 0x02, 0x03}) // small devices, a varied mesh
	f.Add([]byte{2, 4, 3, 5, 0x00, 0x08, 0x00, 0x00, 0x06})                         // one regional link differs, one hub link missing
	f.Add([]byte{2, 6, 1, 9, 0, 0, 0, 0, 0x04, 0x04, 0x04})                         // dev-0 reaches no other device, nor they it
	f.Add([]byte{2, 5, 1, 48, 0x2a, 0x30, 0x30, 0, 4, 4, 4, 4, 4, 4})               // four devices without a device mesh
	f.Add([]byte{3, 5, 2, 4, 0x80, 0x00, 0x00, 0x00, 0x00})                         // the source does not reach dev-0
	f.Add([]byte("800A00B0$"))                                                      // dev-0 and dev-2 do not reach each other
	f.Fuzz(func(t *testing.T, data []byte) {
		cluster, cfg, ok := fuzzTwinCluster(data)
		if !ok {
			return
		}
		app, err := workload.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		want, wantStats, wantErr := legacyDEEPStats(t, app, cluster)
		model := corpusCase{app: app, cluster: cluster}.model()
		p := NewPass(model)
		gotErr := NewDEEP().ScheduleInto(p)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: legacy=%v deep=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		got := p.Placement()
		for name, w := range want {
			if g := got[name]; g != w {
				t.Errorf("%s placed on %s/%s, legacy %s/%s", name, g.Device, g.Registry, w.Device, w.Registry)
			}
		}
		if s := p.Solver(); s != wantStats {
			t.Errorf("solver stats %+v, legacy %+v", s, wantStats)
		}
	})
}

// TestReducedRowsMatchCanonicalRows solves every stage of generated apps on
// twin-rich clusters twice, over the canonical rows and over the reduced
// ones, with the earlier stages committed at random feasible options rather
// than where the pass would put them: so upstreams sit on any twin, not
// only on the first of a class, and a reduction that dropped an upstream's
// device would lose the co-located option. Solo and pair stages must pick
// the same options (or fail alike); the dynamics must visit the same
// profiles and stop after the same sweeps.
func TestReducedRowsMatchCanonicalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stages, reduced := 0, 0
	for _, scale := range []int{2, 4, 12} {
		cluster := workload.ScaledTestbed(scale)
		for _, width := range []int{1, 2, 3, 4} {
			for seed := int64(1); seed <= 8; seed++ {
				cfg := workload.DefaultGeneratorConfig(12, seed)
				cfg.StageWidth = width
				app, err := workload.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				model := costmodel.Compile(app, cluster)
				name := fmt.Sprintf("synthetic12-%d-w%d/scaled%d", seed, width, 2*scale)
				st := model.NewState()
				p := NewPass(model)
				for _, stage := range model.Stages() {
					full := make([][]costmodel.Option, len(stage))
					for k, ms := range stage {
						full[k] = model.Options(ms)
					}
					rows := p.opts[:len(stage)]
					st.StageRows(stage, rows, p.rows)
					stages++
					for k := range stage {
						if len(rows[k]) < len(full[k]) {
							reduced++
							break
						}
					}
					where := fmt.Sprintf("%s: stage %v", name, stage)
					switch len(stage) {
					case 1:
						want, wantErr := scheduleSolo(model, st, stage[0], full[0])
						got, gotErr := scheduleSolo(model, st, stage[0], rows[0])
						if got != want || (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: reduced row picks %v (%v), canonical %v (%v)", where, got, gotErr, want, wantErr)
						}
					case 2:
						w1, w2, wantErr := schedulePair(model, st, stage[0], stage[1], full[0], full[1])
						g1, g2, gotErr := schedulePair(model, st, stage[0], stage[1], rows[0], rows[1])
						if g1 != w1 || g2 != w2 || (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: reduced rows pick (%v, %v), canonical (%v, %v)", where, g1, g2, w1, w2)
						}
					default:
						want, got := make([]costmodel.Option, len(stage)), make([]costmodel.Option, len(stage))
						for k := range stage {
							want[k], got[k] = full[k][0], rows[k][0]
						}
						wantIters, wantConv := bestResponse(st, stage, full, want)
						gotIters, gotConv := bestResponse(st, stage, rows, got)
						if !slices.Equal(got, want) || gotIters != wantIters || gotConv != wantConv {
							t.Fatalf("%s: reduced rows settle at %v after %d sweeps (%v), canonical %v after %d (%v)",
								where, got, gotIters, gotConv, want, wantIters, wantConv)
						}
					}
					for _, ms := range stage {
						opts := model.Options(ms)
						st.Commit(ms, opts[rng.Intn(len(opts))])
					}
				}
			}
		}
	}
	if reduced < stages/2 {
		t.Fatalf("%d of %d stages played over reduced rows; the test must exercise the reduction", reduced, stages)
	}
	t.Logf("%d of %d stages played over reduced rows", reduced, stages)
}
