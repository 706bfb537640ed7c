package costmodel

import (
	"slices"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// TestEqualFeasibilityShareOneRow pins the option table's row sharing on
// ScaledTestbed(3) (amd64 medium devices with 16 GB, arm64 small devices
// with 8 GB): microservices that can run on the same devices share one row,
// whatever makes them so — "c" is amd64-only and "d" needs 12 GB, and both
// fit the medium devices alone — while the arch-restricted "c" does not
// share the unrestricted "a"'s row. Every row equals the row built for its
// microservice alone from the devices' own CanRun and the registry links,
// in canonical (device name) order, both from a fresh compile and from a Scratch that
// compiled another app first.
func TestEqualFeasibilityShareOneRow(t *testing.T) {
	defs := []dag.Microservice{
		{Name: "a", ImageSize: units.GB, Req: dag.Requirements{Cores: 1, CPU: 20_000, Memory: units.GB}},
		{Name: "b", ImageSize: 2 * units.GB, Req: dag.Requirements{Cores: 2, CPU: 30_000, Memory: 2 * units.GB}},
		{Name: "c", ImageSize: units.GB, Req: dag.Requirements{Cores: 1, CPU: 20_000, Memory: units.GB}, Arches: []dag.Arch{dag.AMD64}},
		{Name: "d", ImageSize: units.GB, Req: dag.Requirements{Cores: 1, CPU: 20_000, Memory: 12 * units.GB}},
		{Name: "sink", ImageSize: units.GB, Req: dag.Requirements{Cores: 1, CPU: 10_000, Memory: units.GB}},
	}
	b := dag.Builder{Name: "rows"}
	for _, m := range defs {
		if err := b.Microservice(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []string{"a", "b", "c", "d"} {
		if err := b.Dataflow(from, "sink", 100*units.MB); err != nil {
			t.Fatal(err)
		}
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	cluster := workload.ScaledTestbed(3)
	tab := sim.CompileClusterTable(cluster)

	var dirty Scratch
	other, err := workload.Generate(workload.DefaultGeneratorConfig(12, 5))
	if err != nil {
		t.Fatal(err)
	}
	dirty.CompileShapeOn(appgraph.Compile(other), cluster, tab)
	reused, _ := dirty.CompileShapeOn(appgraph.Compile(app), cluster, tab)

	for _, m := range []*Model{Compile(app, cluster), reused} {
		row := func(name string) []Option { return m.Options(ids(t, m, name)[0]) }
		for i := range defs {
			var want []Option
			for d, name := range tab.DevNames() {
				k := slices.IndexFunc(cluster.Devices, func(dev *device.Device) bool { return dev.Name == name })
				if cluster.Devices[k].CanRun(&defs[i]) != nil {
					continue
				}
				for r := 0; r < m.NumRegistries(); r++ {
					if m.LinkOK(int32(r), int32(d)) {
						want = append(want, Option{Device: int32(d), Registry: int32(r)})
					}
				}
			}
			if got := row(defs[i].Name); !slices.Equal(got, want) {
				t.Fatalf("%s: row %v, want %v", defs[i].Name, got, want)
			}
		}
		shared := func(x, y string) bool { return &row(x)[0] == &row(y)[0] }
		if !shared("a", "b") || !shared("a", "sink") || !shared("c", "d") {
			t.Fatal("microservices with equal feasibility do not share one row")
		}
		if shared("a", "c") || len(row("c")) >= len(row("a")) {
			t.Fatalf("the amd64-only row (%d options) is the unrestricted one (%d)", len(row("c")), len(row("a")))
		}
	}
}
