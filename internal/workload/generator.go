package workload

import (
	"fmt"
	"math/rand"

	"deep/internal/dag"
	"deep/internal/units"
)

// GeneratorConfig parameterizes synthetic dataflow applications for
// scalability sweeps beyond the paper's two six-microservice case studies.
type GeneratorConfig struct {
	// Microservices is the number of vertices (≥ 1).
	Microservices int
	// StageWidth bounds how many microservices share a barrier stage
	// (≥ 1); the generator lays vertices into stages of random width up to
	// this bound and wires each stage to the previous one.
	StageWidth int
	// ImageSize bounds the containerized image sizes.
	ImageSizeMin, ImageSizeMax units.Bytes
	// CPU bounds the processing loads in MI.
	CPUMin, CPUMax units.MI
	// DataflowSize bounds the edge payloads.
	DataflowMin, DataflowMax units.Bytes
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultGeneratorConfig returns a config producing pipelines shaped like
// the paper's case studies but of arbitrary size.
func DefaultGeneratorConfig(n int, seed int64) GeneratorConfig {
	return GeneratorConfig{
		Microservices: n,
		StageWidth:    2,
		ImageSizeMin:  100 * units.MB, ImageSizeMax: 6 * units.GB,
		CPUMin: 100_000, CPUMax: 4_000_000,
		DataflowMin: 50 * units.MB, DataflowMax: 2 * units.GB,
		Seed: seed,
	}
}

// Generate builds a random layered DAG application. The same config always
// yields the same application.
func Generate(cfg GeneratorConfig) (*dag.App, error) {
	if cfg.Microservices < 1 {
		return nil, fmt.Errorf("workload: need at least 1 microservice")
	}
	if cfg.StageWidth < 1 {
		cfg.StageWidth = 1
	}
	if cfg.ImageSizeMax < cfg.ImageSizeMin || cfg.CPUMax < cfg.CPUMin || cfg.DataflowMax < cfg.DataflowMin {
		return nil, fmt.Errorf("workload: inverted generator bounds")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := dag.Builder{Name: fmt.Sprintf("synthetic-%d-%d", cfg.Microservices, cfg.Seed)}
	names := make([]string, cfg.Microservices)

	// Lay microservices into stages, by vertex number.
	var stages [][]int
	made := 0
	for made < cfg.Microservices {
		width := 1 + rng.Intn(cfg.StageWidth)
		if len(stages) == 0 {
			// A single-source first stage keeps the graph connected: every
			// later vertex reaches back to it through its stage's edges.
			width = 1
		}
		if width > cfg.Microservices-made {
			width = cfg.Microservices - made
		}
		var stage []int
		for i := 0; i < width; i++ {
			names[made] = fmt.Sprintf("ms-%02d", made)
			m := dag.Microservice{
				Name:      names[made],
				ImageSize: randBytes(rng, cfg.ImageSizeMin, cfg.ImageSizeMax),
				Req: dag.Requirements{
					Cores:  1,
					CPU:    randMI(rng, cfg.CPUMin, cfg.CPUMax),
					Memory: units.GB,
				},
				Arches: []dag.Arch{dag.AMD64, dag.ARM64},
			}
			if len(stages) == 0 {
				m.ExternalInput = randBytes(rng, cfg.DataflowMin, cfg.DataflowMax)
			}
			if err := b.Microservice(m); err != nil {
				return nil, err
			}
			stage = append(stage, made)
			made++
		}
		stages = append(stages, stage)
	}
	// Wire each stage to the previous: every vertex gets at least one
	// incoming edge from a random member of the prior stage; extra edges
	// keep the graph interesting. feeds[v] records that v has an out-edge.
	feeds := make([]bool, cfg.Microservices)
	dataflow := func(from, to int) error {
		feeds[from] = true
		return b.Dataflow(names[from], names[to], randBytes(rng, cfg.DataflowMin, cfg.DataflowMax))
	}
	for si := 1; si < len(stages); si++ {
		prev := stages[si-1]
		for _, to := range stages[si] {
			if err := dataflow(prev[rng.Intn(len(prev))], to); err != nil {
				return nil, err
			}
		}
		// Make sure every member of the previous stage feeds someone, so
		// the DAG stays connected.
		for _, from := range prev {
			if !feeds[from] {
				if err := dataflow(from, stages[si][rng.Intn(len(stages[si]))]); err != nil {
					return nil, err
				}
			}
		}
	}
	app, err := b.App()
	if err != nil {
		return nil, fmt.Errorf("workload: generated app invalid: %w", err)
	}
	return app, nil
}

func randBytes(rng *rand.Rand, lo, hi units.Bytes) units.Bytes {
	if hi <= lo {
		return lo
	}
	return lo + units.Bytes(rng.Int63n(int64(hi-lo)))
}

func randMI(rng *rand.Rand, lo, hi units.MI) units.MI {
	if hi <= lo {
		return lo
	}
	return lo + units.MI(rng.Float64()*float64(hi-lo))
}
