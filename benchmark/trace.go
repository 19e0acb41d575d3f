package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call: a name, an interval, the span that caused it
// and the op it belongs to. Spans of one op share the op's number.
type Span struct {
	Name       string
	Start, End time.Duration // since the trace began
	Parent     int           // index of the parent span, −1 for a root
	Op         int
}

// Tracer records spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type Tracer struct {
	origin time.Time
	spans  []Span
	stack  []int
	op     int
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// span times fn as a child of the span now open.
func (t *Tracer) span(name string, fn func() error) error {
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Parent: t.parent(), Op: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].Start = time.Since(t.origin)
	err := fn()
	t.spans[id].End = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// ended records a span that just ended and lasted d, as a child of the
// span now open: the shape a stage callback reports in.
func (t *Tracer) ended(name string, d time.Duration) {
	end := time.Since(t.origin)
	t.spans = append(t.spans, Span{Name: name, Start: end - d, End: end, Parent: t.parent(), Op: t.op})
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []Span) []time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], interval{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := time.Duration(0), s.Start
		for _, iv := range ivs {
			if iv.hi <= reach {
				continue
			}
			covered += iv.hi - max(iv.lo, reach)
			reach = iv.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durationsUS collects the durations, in µs, of the spans with the name.
func durationsUS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, micros(s.End-s.Start))
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace events ("X" complete
// events, µs), one track per workload, which Perfetto and chrome://tracing
// open. Self time and the parent's name ride in args.
func writeChromeTrace(path string, tracks map[string][]Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var names []string
	for name := range tracks {
		names = append(names, name)
	}
	sort.Strings(names)
	var events []event
	for tid, name := range names {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": name}})
		spans := tracks[name]
		self := selfTimes(spans)
		for i, s := range spans {
			args := map[string]any{"op": s.Op, "self_us": micros(self[i])}
			if s.Parent >= 0 {
				args["parent"] = spans[s.Parent].Name
			}
			events = append(events, event{
				Name: s.Name, Ph: "X", PID: 1, TID: tid,
				TS: micros(s.Start), Dur: micros(s.End - s.Start),
				Args: args,
			})
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
