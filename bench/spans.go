package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one harness-side interval around a call into a layer. parent is
// the index of the span that caused it, -1 for a repetition's own span.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer keeps spans in memory until the traced pass ends.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// durationsMs returns the durations of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end.Sub(s.start).Nanoseconds())/1e6)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events,
// microseconds from the first span), loadable in chrome://tracing and
// Perfetto. A child span carries its parent's index in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.spans[0].start).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]int{"span": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
