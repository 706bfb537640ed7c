package obs

import "expvar"

// histogramVars is the expvar/JSON view of one histogram.
type histogramVars struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Vars returns the registry as a plain JSON-marshalable document —
// counters and gauges by name, histograms summarized with bucket-estimated
// quantiles. Collect hooks run first.
func (r *Registry) Vars() map[string]any {
	r.runCollect()
	counters := map[string]float64{}
	for _, name := range r.CounterNames() {
		c, _ := r.LookupCounter(name)
		counters[name] = c.Value()
	}
	gauges := map[string]float64{}
	for _, name := range r.GaugeNames() {
		g, _ := r.LookupGauge(name)
		gauges[name], _ = g.Value()
	}
	hists := map[string]histogramVars{}
	var snap HistogramSnapshot
	for _, name := range r.HistogramNames() {
		h, _ := r.LookupHistogram(name)
		h.Snapshot(&snap)
		hists[name] = histogramVars{
			Count: snap.Count, Sum: snap.Sum, Min: snap.Min, Max: snap.Max,
			Mean: snap.Mean(), P50: snap.Quantile(0.50), P99: snap.Quantile(0.99),
		}
	}
	return map[string]any{"counters": counters, "gauges": gauges, "histograms": hists}
}

// Expvar adapts the registry to the expvar protocol.
func (r *Registry) Expvar() expvar.Func {
	return expvar.Func(func() any { return r.Vars() })
}

// PublishExpvar publishes the registry under the given expvar name.
// expvar.Publish panics on duplicate names, so call this once per process
// per name (fleetd.New does it when its Config sets ExpvarName).
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, r.Expvar())
}
