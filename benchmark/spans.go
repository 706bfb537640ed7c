package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call of the traced replay. Spans of one request share
// its Req id; Parent is the span that caused this one (0 for the request's
// root). Start and End are nanoseconds on the request's own timeline: see
// README.md, "Reading spans.jsonl".
type span struct {
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	workload string
	spans    []span
}

// add records a span of dur nanoseconds starting at start and returns its id.
func (r *recorder) add(req, parent int, name string, start, dur int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Workload: r.workload, Req: req, ID: id, Parent: parent, Name: name, Start: start, End: start + dur})
	return id
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other or
// stick out of the parent; only the covered part of the parent counts.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTime is one span name's share of a replay.
type layerTime struct {
	totalNS int64 // summed duration
	selfNS  int64 // summed self time
}

// byLayer sums duration and self time per span name.
func byLayer(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.totalNS += s.End - s.Start
		lt.selfNS += self[s.ID]
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // closing twice is harmless; the success path checks Close below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
