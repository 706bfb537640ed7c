// Command deepsim schedules and simulates one case-study application on the
// calibrated testbed with a chosen method, printing the placement and the
// per-microservice timing/energy rows.
//
// Usage:
//
//	deepsim -app text -method deep
//	deepsim -app video -method exclusive-hub -seed 3 -jitter 0.02
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"deep"
)

func main() {
	appName := flag.String("app", "text", "application: video|text")
	method := flag.String("method", "deep", "scheduler: deep|exclusive-hub|exclusive-regional|greedy-energy|min-ct|round-robin|random")
	seed := flag.Int64("seed", 0, "measurement jitter seed")
	jitter := flag.Float64("jitter", 0, "jitter half-width (e.g. 0.02 for ±2%)")
	flag.Parse()

	var app *deep.App
	switch *appName {
	case "video":
		app = deep.VideoProcessing()
	case "text":
		app = deep.TextProcessing()
	default:
		fmt.Fprintf(os.Stderr, "deepsim: unknown app %q\n", *appName)
		os.Exit(1)
	}

	var scheduler deep.Scheduler
	for _, s := range deep.AllSchedulers(*seed) {
		if s.Name() == *method {
			scheduler = s
		}
	}
	if scheduler == nil {
		fmt.Fprintf(os.Stderr, "deepsim: unknown method %q\n", *method)
		os.Exit(1)
	}

	cluster := deep.Testbed()
	placement, err := deep.Schedule(scheduler, app, cluster)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepsim:", err)
		os.Exit(1)
	}
	res, err := deep.Run(app, cluster, placement, deep.Options{Seed: *seed, Jitter: *jitter})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepsim:", err)
		os.Exit(1)
	}

	fmt.Printf("app=%s method=%s\n\n", app.Name, scheduler.Name())
	fmt.Printf("%-18s %-8s %-9s %8s %8s %8s %9s %10s\n",
		"microservice", "device", "registry", "Td[s]", "Tc[s]", "Tp[s]", "CT[s]", "EC[J]")
	rows := res.Sorted()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Start < rows[j].Start })
	for _, m := range rows {
		fmt.Printf("%-18s %-8s %-9s %8.1f %8.1f %8.1f %9.1f %10.1f\n",
			m.Name, m.Device, m.Registry, m.DeployTime, m.TransferTime, m.ProcessTime, m.CT, float64(m.TotalEnergy()))
	}
	fmt.Printf("\nmakespan: %.1f s\ntotal energy: %s\n", res.Makespan, res.TotalEnergy)
	for _, b := range res.BytesFromRegistry {
		fmt.Printf("pulled from %s: %s\n", b.Registry, b.Bytes)
	}
}
