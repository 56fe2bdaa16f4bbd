package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one unit of work
// (a job, an evolve step, a service batch) share Class and Cycle; Parent is
// the index of the span that caused this one, -1 for the unit's root.
type span struct {
	Name    string `json:"name"`
	Class   string `json:"class"`
	Cycle   int    `json:"cycle"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends. It is
// not safe for concurrent use: the serial workloads trace from one goroutine
// and the service workload adds its spans after each batch from timestamps
// the clients recorded.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, class string, cycle, parent int) int {
	t.spans = append(t.spans, span{Name: name, Class: class, Cycle: cycle, Parent: parent, StartNs: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].EndNs = t.now() }

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTimes returns every span's self time in nanoseconds: its duration minus
// the part of its interval that its direct children cover. Children may
// overlap each other (concurrent service jobs under one batch), so coverage is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// spanKey groups self-time samples: one layer in one class.
type spanKey struct{ name, class string }

// selfSamplesMs groups self times by (name, class), one sample per cycle in
// milliseconds: spans of the same name in the same class and cycle add up.
func selfSamplesMs(spans []span) map[spanKey][]float64 {
	self := selfTimes(spans)
	type cell struct {
		key   spanKey
		cycle int
	}
	perCycle := make(map[cell]int64)
	cycles := make(map[spanKey][]int)
	for i, s := range spans {
		c := cell{spanKey{s.Name, s.Class}, s.Cycle}
		if _, seen := perCycle[c]; !seen {
			cycles[c.key] = append(cycles[c.key], s.Cycle)
		}
		perCycle[c] += self[i]
	}
	out := make(map[spanKey][]float64, len(cycles))
	for key, cs := range cycles {
		samples := make([]float64, len(cs))
		for i, cycle := range cs {
			samples[i] = float64(perCycle[cell{key, cycle}]) / 1e6
		}
		out[key] = samples
	}
	return out
}

// writeSpans writes the span list as one JSON document.
func writeSpans(path string, host hostInfo, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Host     hostInfo `json:"host"`
		Workload string   `json:"workload"`
		Spans    []span   `json:"spans"`
	}{host, workload, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
