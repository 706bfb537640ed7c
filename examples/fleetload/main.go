// Example fleetload: run the multi-tenant deployment service under a bursty
// open-loop load of synthetic tenants plus the paper's two case studies, and
// print the throughput/latency/cache report and per-tenant metrics.
package main

import (
	"context"
	"fmt"
	"log"

	"deep"
)

func main() {
	// Four tenants of synthetic 8-microservice pipelines, plus the two
	// paper case studies, all sharing one fleet.
	mix, err := deep.SyntheticMix(4, 2, 8, 42)
	if err != nil {
		log.Fatal(err)
	}
	mix = append(mix, deep.CaseStudyMix()...)

	// Every simulation starts from empty device layer caches, so a
	// deployment's energy and makespan depend only on its app, the cluster,
	// its placement and its seed — not on which worker served it.
	f := deep.NewFleet(deep.FleetConfig{
		Workers:    4,
		QueueDepth: 128,
		CacheSize:  256,
	})
	defer f.Close()

	arrivals, err := deep.NewArrivals("bursty", 300)
	if err != nil {
		log.Fatal(err)
	}
	report, err := deep.DriveFleet(context.Background(), f, deep.TrafficConfig{
		Arrivals: arrivals,
		Mix:      mix,
		Requests: 500,
		Speedup:  10, // replay the arrival sequence 10x faster than real time
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)

	// The fleet also aggregated everything into a monitor.Metrics registry.
	snapshot, err := f.Metrics().ExportJSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics snapshot: %d bytes of JSON\n", len(snapshot))
}
