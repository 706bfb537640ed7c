package workload

import (
	"fmt"
	"math"

	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/units"
)

// StandaloneApp builds a single-microservice application for benchmarking
// one Table II row in isolation: the image is pulled from a registry and the
// microservice's whole input arrives from the source node, exactly the
// configuration the published benchmarks measured.
func StandaloneApp(appName, msName string) (*dag.App, error) {
	r, ok := Row(appName, msName)
	if !ok {
		return nil, fmt.Errorf("workload: no Table II row for %s/%s", appName, msName)
	}
	d := Derive(r)
	ref, _ := CatalogRef(appName, msName)
	b := dag.Builder{Name: "bench-" + appName + "-" + msName}
	err := b.Microservice(dag.Microservice{
		Name:      appName + "/" + msName,
		ImageSize: units.Bytes(math.Round(r.SizeGB * float64(units.GB))),
		Images: map[string]string{
			"hub":      ref.Hub,
			"regional": ref.Regional,
		},
		Req: dag.Requirements{
			Cores:   coresFor(msName),
			CPU:     d.CPU,
			Memory:  memoryFor(msName),
			Storage: d.InputSize,
		},
		Arches:        []dag.Arch{dag.AMD64, dag.ARM64},
		ExternalInput: d.InputSize,
	})
	if err != nil {
		return nil, err
	}
	return b.App()
}

// BenchmarkRun simulates one Table II benchmark: the microservice deployed
// from the given registry onto the given device, with measurement jitter
// driven by trial.
func BenchmarkRun(appName, msName, deviceName, registry string, trial int64, jitter float64) (*sim.Result, error) {
	app, err := StandaloneApp(appName, msName)
	if err != nil {
		return nil, err
	}
	cluster := Testbed()
	placement := sim.Placement{
		appName + "/" + msName: {Device: deviceName, Registry: registry},
	}
	return sim.Run(app, cluster, placement, sim.Options{Seed: trial, Jitter: jitter})
}
