// Quickstart: run the full DEEP pipeline — requirement analysis, dependency
// analysis, Nash-game scheduling, and dataflow processing — on the paper's
// text-processing application and print the energy outcome.
package main

import (
	"fmt"
	"log"

	"deep"
)

func main() {
	// The calibrated two-device testbed: the medium Intel i7-7700, the
	// small Raspberry Pi 4, Docker Hub, and the regional registry.
	cluster := deep.Testbed()

	sys := deep.NewSystem(cluster)
	dep, err := sys.Deploy(deep.TextProcessing())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DEEP placement (device / registry per microservice):")
	for _, m := range dep.Result.Sorted() {
		fmt.Printf("  %-18s -> %-7s from %s\n", m.Name, m.Device, m.Registry)
	}
	fmt.Printf("\ntotal energy:  %s\n", dep.Result.TotalEnergy)
	fmt.Printf("makespan:      %.1f s\n", dep.Result.Makespan)
	for _, b := range dep.Result.BytesFromRegistry {
		fmt.Printf("pulled from %-9s %s\n", b.Registry+":", b.Bytes)
	}
}
