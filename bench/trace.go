package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported function. Spans of one op share its index; Parent
// is the span that caused this one (0 for an op's root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the staged pass runs the same code untraced to
// measure what recording costs.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its children cover. Children that overlap
// one another are counted once, and a child that runs past its parent
// is clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// stageLedger is what a traced pass says about where an op's time goes.
type stageLedger struct {
	ops      int
	opNS     int64            // Σ root span durations
	selfNS   map[string]int64 // Σ self time by span name, root spans excluded
	coverage float64          // Σ child self time ÷ Σ root span duration
}

// ledgerOf folds a trace into per-stage self-time totals.
func ledgerOf(spans []span) stageLedger {
	l := stageLedger{selfNS: map[string]int64{}}
	self := selfTimes(spans)
	var childNS int64
	for _, s := range spans {
		if s.Parent == 0 {
			l.ops++
			l.opNS += s.EndNS - s.StartNS
			continue
		}
		l.selfNS[s.Name] += self[s.ID]
		childNS += self[s.ID]
	}
	if l.opNS > 0 {
		l.coverage = float64(childNS) / float64(l.opNS)
	}
	return l
}

// perOpMS is a stage's self time per op in milliseconds.
func (l stageLedger) perOpMS(name string) float64 {
	if l.ops == 0 {
		return 0
	}
	return float64(l.selfNS[name]) / float64(l.ops) / 1e6
}

// share is a stage's self time as a share of the ops' total span.
func (l stageLedger) share(name string) float64 {
	if l.opNS == 0 {
		return 0
	}
	return float64(l.selfNS[name]) / float64(l.opNS)
}
