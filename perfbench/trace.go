package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans the benchmark records around its own calls
// into each layer. Spans stay in memory; writeChrome exports them at the
// end of a traced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent is the ID of the span that caused it
// (0 for a root); Lane separates concurrent workers in the export.
type span struct {
	ID, Parent int
	Name       string
	Lane       int
	Start, End time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane,
		Start: time.Since(t.t0),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// seconds returns the durations of every closed span named name.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, secs(s.End-s.Start))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, one thread per lane), loadable in Perfetto.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
