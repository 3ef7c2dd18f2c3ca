package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Times
// are nanoseconds since the tracer's origin.
type span struct {
	Name       string
	Start, End int64
	Parent     int32 // index of the parent span, -1 for a root
	Req        uint64
	Lane       int32 // Chrome tid: spans on one lane nest by time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one pointer test per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at converts a wall instant to tracer nanoseconds.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// add records a span and returns its index (-1 when tracing is off).
func (t *tracer) add(name string, parent int32, start, end time.Time, req uint64, lane int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Req: req, Lane: lane})
	return int32(len(t.spans) - 1)
}

// setParent re-parents span i (used when the parent is only known after
// the run, as for a backend call serving many requests).
func (t *tracer) setParent(i, parent int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Parent = parent
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, cur), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// checkNesting verifies that every child lies inside its parent and that
// every self time is non-negative.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i && spans[s.Parent].Parent == int32(i) {
			return fmt.Errorf("span %d (%s) is its parent's parent", i, s.Name)
		}
		p := spans[s.Parent]
		// The serving stages are rebuilt from the engine's own clock
		// readings; allow a few microseconds of skew against ours.
		const slack = 50_000
		if s.Start < p.Start-slack || s.End > p.End+slack {
			return fmt.Errorf("span %d (%s [%d,%d]) escapes its parent %s [%d,%d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", i, spans[i].Name, v)
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (opens in
// Perfetto). Each event carries its span index, parent index, request ID
// and self time.
func writeChrome(path string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","otherData":`)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"span": i, "parent": s.Parent, "self_us": float64(self[i]) / 1e3}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		ev := chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readChrome parses a dump back and returns its event count (the same
// acceptance test as the repository's checkjson -chrome).
func readChrome(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, err
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("%s: empty traceEvents array", path)
	}
	return len(doc.TraceEvents), nil
}
