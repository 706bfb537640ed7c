package sim

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"deep/internal/device"
	"deep/internal/slab"
	"deep/internal/units"
)

// Exec is the reusable scratch for repeated compiled simulation runs: flat
// pull records, finish times, device serialization horizons, per-device
// energy accumulators, cold-run layer caches, and a reusable Result buffer,
// all sized to the largest plan seen so far. Repeated Exec.Run calls on a
// compiled plan allocate nothing at all, cold or warm; the returned Result
// is bit-identical to what the legacy map-based executor produced for the
// same inputs.
//
// An Exec is not safe for concurrent use; give each worker its own. It may
// be shared sequentially across plans of any shape.
type Exec struct {
	// Per-microservice scratch (indexed by plan ms id). choices holds a
	// named placement interned to ids.
	choices []Choice
	pulls   []execPull
	finish  []float64
	msRes   []MicroserviceResult

	// Per-device scratch. pullEnd is valid only when pullEndEp matches the
	// current epoch (one epoch per stage), mirroring the legacy executor's
	// per-stage pullEnd map; devFree and devEnergy span the whole run.
	devFree   []float64
	devEnergy []units.Joules
	pullEnd   []float64
	pullEndEp []uint64

	// Shared-registry contention scratch: pullSeen marks (registry, device)
	// cells, nPull counts distinct pulling devices per registry, both
	// epoch-validated per stage.
	pullSeen []uint64
	nPull    []int32
	nPullEp  []uint64
	epoch    uint64

	// Per-registry byte accounting; regUsed marks registries named by the
	// placement (the legacy executor created a map entry even for 0 bytes).
	regBytes []units.Bytes
	regUsed  []bool

	// Cold-run layer caches, one per plan device, made on first use. A run
	// without WarmCaches resets device d's to the device's storage on its
	// first touch (when cacheRun[d] is not the current run) and never reads
	// or writes the cluster's own caches, so a cold run is a pure function
	// of its inputs.
	caches   []*device.LayerCache
	cacheRun []uint64
	runs     uint64

	seedBuf []byte
	res     Result
}

// execPull is one microservice's deployment record within the current stage.
type execPull struct {
	missing units.Bytes
	td      float64
	start   float64
	done    float64
}

// NewExec returns an empty executor; its scratch grows to fit the first
// plan it runs.
func NewExec() *Exec { return &Exec{} }

// size grows the scratch to the plan's dimensions. Growing never shrinks,
// so an Exec shared across plans settles at the largest shape.
func (e *Exec) size(p *Plan) {
	nm, nd, nr := len(p.msNames), len(p.devNames), len(p.regNames)
	e.choices = slab.Grow(e.choices, nm)
	e.pulls = slab.Grow(e.pulls, nm)
	e.finish = slab.Grow(e.finish, nm)
	e.msRes = slab.Grow(e.msRes, nm)
	e.devFree = slab.Grow(e.devFree, nd)
	e.devEnergy = slab.Grow(e.devEnergy, nd)
	e.pullEnd = slab.Grow(e.pullEnd, nd)
	e.pullEndEp = slab.Grow(e.pullEndEp, nd)
	e.pullSeen = slab.Grow(e.pullSeen, nr*nd)
	e.nPull = slab.Grow(e.nPull, nr)
	e.nPullEp = slab.Grow(e.nPullEp, nr)
	e.regBytes = slab.Grow(e.regBytes, nr)
	e.regUsed = slab.Grow(e.regUsed, nr)
	e.cacheRun = slab.Grow(e.cacheRun, nd)
	e.caches = slab.Grow(e.caches, nd)
}

// layerCache is the cache a run reads and fills for device d: the device's
// own under WarmCaches, else the Exec's, emptied on the run's first touch.
func (e *Exec) layerCache(p *Plan, d int32, warm bool) *device.LayerCache {
	if warm {
		return p.devices[d].Cache()
	}
	c := e.caches[d]
	if c == nil {
		c = device.NewLayerCache(0)
		e.caches[d] = c
	} else if e.cacheRun[d] == e.runs {
		return c
	}
	e.cacheRun[d] = e.runs
	c.Reset(p.devices[d].Storage)
	return c
}

// Run replays the plan under the placement and returns per-microservice
// timing and energy, exactly as sim.Run does. The returned Result (its
// slices and maps included) is owned by the Exec and valid only until the
// next run on it; callers that hand it off should Clone it.
func (e *Exec) Run(p *Plan, placement Placement, opts Options) (*Result, error) {
	return e.runNamed(p, opts, func(name string) (Assignment, bool) {
		a, ok := placement[name]
		return a, ok
	})
}

// RunIndexed is Run for a placement already in compiled parallel-slice form
// (names sorted ascending, assigns parallel) — the shape placements take in
// the fleet's memo and response views. Semantics and the returned Result are
// identical to Run on the materialized map; the point is that no map has to
// be materialized at all.
func (e *Exec) RunIndexed(p *Plan, names []string, assigns []Assignment, opts Options) (*Result, error) {
	return e.runNamed(p, opts, func(name string) (Assignment, bool) {
		if k, ok := slices.BinarySearch(names, name); ok {
			return assigns[k], true
		}
		return Assignment{}, false
	})
}

// RunChoices is Run for a placement in id form: choices[i] assigns the
// microservice with id i, its fields index the plan's cluster table — the
// form a scheduling pass computes (a costmodel.Option is a Choice). The ids
// are checked by index (count, range, feasibility through the class row),
// so a valid placement touches no name; the Result is the one Run returns
// for the same placement by name. choices is read during the call only.
func (e *Exec) RunChoices(p *Plan, choices []Choice, opts Options) (*Result, error) {
	if err := p.checkChoices(choices); err != nil {
		return nil, err
	}
	e.size(p)
	return e.run(p, choices, opts)
}

// runNamed interns a named placement into e.choices and runs it, where
// assign returns a microservice's assignment by name. The intern walk goes
// through the app in declaration order and checks each microservice fully —
// missing, unknown device, unknown registry, then Plan.checkChoice — so a
// placement with several faults reports the first one in that order, in
// every named form.
func (e *Exec) runNamed(p *Plan, opts Options, assign func(name string) (Assignment, bool)) (*Result, error) {
	e.size(p)
	rank := p.app.Order().Rank
	for v, m := range p.app.Microservices {
		a, ok := assign(m.Name)
		if !ok {
			return nil, fmt.Errorf("sim: placement missing microservice %q", m.Name)
		}
		d, okD := p.devIndex[a.Device]
		if !okD {
			return nil, fmt.Errorf("sim: placement of %q names unknown device %q", m.Name, a.Device)
		}
		r, okR := p.regIndex[a.Registry]
		if !okR {
			return nil, fmt.Errorf("sim: placement of %q names unknown registry %q", m.Name, a.Registry)
		}
		i, c := rank[v], Choice{Device: d, Registry: r}
		if err := p.checkChoice(i, c); err != nil {
			return nil, err
		}
		e.choices[i] = c
	}
	return e.run(p, e.choices[:len(p.msNames)], opts)
}

// run replays the plan under a checked id-form placement.
func (e *Exec) run(p *Plan, choices []Choice, opts Options) (*Result, error) {
	nd := len(p.devNames)
	e.runs++
	for d := 0; d < nd; d++ {
		e.devFree[d] = 0
		e.devEnergy[d] = 0
	}
	for r := range p.regNames {
		e.regBytes[r] = 0
		e.regUsed[r] = false
	}

	// Deterministic jitter: the historical implementation FNV-1a-hashed
	// "seed|app|ms|phase"; the compiled path hashes the seed's digits once
	// and continues per (ms, phase) from the plan's precomputed tag bytes —
	// the same byte stream, so the factors are bit-identical.
	jw := opts.Jitter
	seedH := uint64(fnvOffset64)
	if jw != 0 {
		e.seedBuf = strconv.AppendInt(e.seedBuf[:0], opts.Seed, 10)
		seedH = fnvAdd(seedH, e.seedBuf)
	}

	barrier := 0.0
	for _, stage := range p.stages {
		e.epoch++

		// --- Deployment phase: cache-aware pull sizing ------------------
		// Pulls on one device are serialized; pulls from a shared registry
		// to several distinct devices at once divide its uplink capacity.
		for _, ms := range stage {
			d := choices[ms].Device
			cache := e.layerCache(p, d, opts.WarmCaches)
			var missing units.Bytes
			for _, layer := range p.layers[ms] {
				if !cache.Has(layer.Digest) {
					missing += layer.Size
					cache.Put(layer.Digest, layer.Size)
				}
			}
			e.pulls[ms].missing = missing
			if missing > 0 {
				r := choices[ms].Registry
				cell := int(r)*nd + int(d)
				if e.pullSeen[cell] != e.epoch {
					e.pullSeen[cell] = e.epoch
					if e.nPullEp[r] != e.epoch {
						e.nPullEp[r] = e.epoch
						e.nPull[r] = 0
					}
					e.nPull[r]++
				}
			}
		}
		for _, ms := range stage {
			pl := &e.pulls[ms]
			if pl.missing == 0 {
				pl.start, pl.done, pl.td = barrier, barrier, 0
				continue
			}
			d, r := choices[ms].Device, choices[ms].Registry
			l := p.regLink[int(r)*nd+int(d)]
			if !l.OK {
				return nil, fmt.Errorf("sim: no route from registry %s to device %s", p.regNames[r], p.devNames[d])
			}
			bw := l.BW
			if p.regShared[r] && e.nPullEp[r] == e.epoch {
				if n := e.nPull[r]; n > 1 {
					bw = l.BW / units.Bandwidth(n)
				}
			}
			td := l.RTT + bw.Seconds(pl.missing)
			if jw != 0 {
				td *= jitterFactor(seedH, p.jitterTag[phaseDeploy][ms], jw)
			}
			pl.td = td
			start := barrier
			if e.pullEndEp[d] == e.epoch && e.pullEnd[d] > start {
				start = e.pullEnd[d]
			}
			pl.start = start
			pl.done = start + td
			e.pullEnd[d] = pl.done
			e.pullEndEp[d] = e.epoch
		}

		// --- Transfer + processing phases -------------------------------
		for _, ms := range stage {
			d, r := choices[ms].Device, choices[ms].Registry
			pl := &e.pulls[ms]
			td := pl.td

			tc := 0.0
			for _, in := range p.inputs[ms] {
				dl := p.devLink[int(choices[in.MS].Device)*nd+int(d)]
				if dl.OK {
					tc += dl.RTT + dl.BW.Seconds(in.Size)
				} else {
					tc += math.Inf(1)
				}
			}
			if p.extInput[ms] > 0 && p.hasSource {
				if sl := p.srcLink[d]; sl.OK {
					tc += sl.RTT + sl.BW.Seconds(p.extInput[ms])
				} else {
					tc += math.Inf(1)
				}
			}
			if jw != 0 {
				tc *= jitterFactor(seedH, p.jitterTag[phaseTransfer][ms], jw)
			}

			k := p.cell(ms, d)
			tp := p.tp[k]
			if jw != 0 {
				tp *= jitterFactor(seedH, p.jitterTag[phaseProcess][ms], jw)
			}

			readyAt := pl.done + tc
			startProc := readyAt
			if e.devFree[d] > startProc {
				startProc = e.devFree[d]
			}
			wait := (pl.start - barrier) + (startProc - readyAt)
			finish := startProc + tp
			e.devFree[d] = finish
			e.finish[ms] = finish

			// Energy accounting, in the legacy meter's record order (pull,
			// receive, process) so per-device totals accumulate in the same
			// floating-point sequence. Negative durations (a jitter width
			// over 1) fail exactly where the legacy meter did.
			if td < 0 {
				return nil, fmt.Errorf("energy: negative duration %v", td)
			}
			if tc < 0 {
				return nil, fmt.Errorf("energy: negative duration %v", tc)
			}
			if tp < 0 {
				return nil, fmt.Errorf("energy: negative duration %v", tp)
			}
			pullW, recvW, procW, idleW := p.pullW[k], p.recvW[k], p.procW[k], p.idleW[d]
			e.devEnergy[d] += pullW.Over(td)
			e.devEnergy[d] += recvW.Over(tc)
			e.devEnergy[d] += procW.Over(tp)

			// The draws above idle are taken here, per device: the one
			// subtraction a precomputed table would hold, so the same bits.
			ct := td + tc + tp
			active := (pullW - idleW).Over(td) + (recvW - idleW).Over(tc) + (procW - idleW).Over(tp)
			static := idleW.Over(ct)

			e.regBytes[r] += pl.missing
			e.regUsed[r] = true
			e.msRes[ms] = MicroserviceResult{
				Name: p.msNames[ms], Device: p.devNames[d], Registry: p.regNames[r],
				DeployTime: td, TransferTime: tc, ProcessTime: tp,
				WaitTime: wait, CT: ct,
				Start: barrier, Finish: finish,
				Energy: active, StaticShare: static,
				BytesPulled: pl.missing, CacheHit: pl.missing == 0,
			}
		}

		// Barrier: the next stage starts once every microservice of this
		// stage has finished.
		for _, ms := range stage {
			if e.finish[ms] > barrier {
				barrier = e.finish[ms]
			}
		}
	}

	res := &e.res
	res.App = p.app.Name
	res.Makespan = barrier
	res.TotalEnergy = 0
	res.Microservices = res.Microservices[:0]
	res.EnergyByDevice = slab.Grow(res.EnergyByDevice, nd)
	res.BytesFromRegistry = res.BytesFromRegistry[:0]
	for _, ms := range p.topo {
		r := &e.msRes[ms]
		res.Microservices = append(res.Microservices, *r)
		res.TotalEnergy += r.TotalEnergy()
	}
	for d, name := range p.devNames {
		res.EnergyByDevice[d] = DeviceEnergy{Device: name, Energy: e.devEnergy[d]}
	}
	for r, name := range p.regNames {
		if e.regUsed[r] {
			res.BytesFromRegistry = append(res.BytesFromRegistry, RegistryBytes{Registry: name, Bytes: e.regBytes[r]})
		}
	}
	return res, nil
}
