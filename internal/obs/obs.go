// Package obs is the pipeline's observability layer: wall-time spans,
// counters/gauges/duration metrics and structured progress logging,
// threaded through the reconstruction path as a single *Observer.
//
// The layer is built around two rules. First, a nil *Observer (and a nil
// *Trace, *Metrics or *Span inside one) is fully functional: every
// method no-ops after a nil receiver check, so an uninstrumented run
// pays nothing beyond that check and call sites never guard. Second,
// observation must not perturb results: the layer only reads and times —
// timing lives in telemetry, never in pipeline data — so the pipeline
// output is byte-identical with observability on or off, for any worker
// count. Counter values (as opposed to durations) are themselves
// deterministic: they count work items whose number does not depend on
// scheduling, and are asserted as such in the core tests.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/par"
)

// Observer bundles the three sinks the pipeline reports into: a span
// trace, a metric registry and a structured logger. Any subset may be
// nil; a nil *Observer disables everything.
type Observer struct {
	// Trace receives the span tree; nil disables span collection.
	Trace *Trace
	// Metrics receives counters, gauges and duration observations; nil
	// disables them.
	Metrics *Metrics
	// Log receives Info/Debug progress events; nil disables logging.
	Log *slog.Logger

	// parent, when set, makes StartSpan create children of it instead of
	// root spans; lane is the Chrome-trace lane StartSpan uses. Both are
	// configured with WithSpan / WithLane.
	parent *Span
	lane   int
}

// WithSpan returns a copy of the observer whose StartSpan creates
// children of s. Used by multi-run drivers (extract -all) to nest each
// run's stage spans under a per-run span.
func (o *Observer) WithSpan(s *Span) *Observer {
	if o == nil {
		return nil
	}
	c := *o
	c.parent = s
	return &c
}

// WithLane returns a copy of the observer whose spans render on the
// given Chrome-trace lane (worker child spans use lane+1+worker).
func (o *Observer) WithLane(lane int) *Observer {
	if o == nil {
		return nil
	}
	c := *o
	c.lane = lane
	return &c
}

// WithLaneOffset returns a copy of the observer shifted d lanes from its
// current lane. The streaming reconstruction uses it to give each of its
// concurrently-open stage spans a private lane relative to the run's
// base lane, so per-lane span intervals stay disjoint-or-nested.
func (o *Observer) WithLaneOffset(d int) *Observer {
	if o == nil {
		return nil
	}
	c := *o
	c.lane += d
	return &c
}

// Lane returns the observer's current Chrome-trace lane (0 for nil).
func (o *Observer) Lane() int {
	if o == nil {
		return 0
	}
	return o.lane
}

// StartSpan opens a span named name — a child of the configured parent
// span if any, a root span otherwise. Returns nil (safe to use) when the
// observer or its trace is nil.
func (o *Observer) StartSpan(name string) *Span {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.start(name, o.parent, o.lane, o.Log)
}

// Count adds delta to the named counter. Counters must count
// deterministic quantities (work items, detections, iterations), never
// durations: they are asserted reproducible across worker counts.
func (o *Observer) Count(name string, delta int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Add(name, delta)
}

// Gauge sets the named gauge to v (last write wins).
func (o *Observer) Gauge(name string, v float64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Set(name, v)
}

// ObserveDur folds d into the named duration histogram. Timings are
// scheduling-dependent and are never part of the determinism contract.
func (o *Observer) ObserveDur(name string, d time.Duration) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Observe(name, d)
}

// Snapshot returns the current metric snapshot, or nil when metrics are
// disabled.
func (o *Observer) Snapshot() *Snapshot {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Snapshot()
}

// Info logs a progress event at info level (-v).
func (o *Observer) Info(msg string, args ...any) {
	if o == nil || o.Log == nil {
		return
	}
	o.Log.Info(msg, args...)
}

// Debug logs a detail event at debug level (-vv).
func (o *Observer) Debug(msg string, args ...any) {
	if o == nil || o.Log == nil {
		return
	}
	o.Log.Debug(msg, args...)
}

// active reports whether any sink that ForEachCtx instruments is attached.
func (o *Observer) active() bool {
	return o != nil && (o.Trace != nil || o.Metrics != nil)
}

// ForEachCtx fans fn out on the par worker pool (see par.ForEachCtx)
// under a new stage span, opening one child span per worker (on lanes
// lane+1+worker) and accounting worker busy/idle time and pool spin-up
// wait into the metrics ("par.worker_busy", "par.worker_idle",
// "par.queue_wait"). With a nil or traceless+metricless observer it is
// exactly par.ForEachCtx. The hooks only observe: fn's scheduling,
// inputs and outputs are untouched, so the fan-out's results stay
// byte-identical. Workers check ctx between indices, so a caller
// deadline or SIGINT stops the stage at the next unit boundary.
func (o *Observer) ForEachCtx(ctx context.Context, stage string, workers, n int, fn func(ctx context.Context, i int) error) error {
	if !o.active() {
		return par.ForEachCtx(ctx, par.Config{Workers: workers}, n, fn)
	}
	sp := o.StartSpan(stage)
	defer sp.End()
	setup := time.Now()
	hooks := par.Hooks{Worker: func(w int) (func(int) func(), func()) {
		ws := sp.childWorker(fmt.Sprintf("%s/worker%d", stage, w), o.lane+1+w)
		wStart := time.Now()
		o.ObserveDur("par.queue_wait", wStart.Sub(setup))
		var busy time.Duration
		task := func(int) func() {
			t0 := time.Now()
			return func() { busy += time.Since(t0) }
		}
		finish := func() {
			ws.End()
			o.ObserveDur("par.worker_busy", busy)
			if idle := time.Since(wStart) - busy; idle > 0 {
				o.ObserveDur("par.worker_idle", idle)
			}
		}
		return task, finish
	}}
	return par.ForEachCtx(ctx, par.Config{Workers: workers, Hooks: hooks}, n, fn)
}

// Trace collects a tree of timed spans. Safe for concurrent use: spans
// may be started and ended from any goroutine.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*Span
	corr  string
}

// NewTrace returns an empty trace whose epoch (Chrome ts zero) is now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// Span is one timed interval in a trace. A nil *Span is inert: every
// method no-ops, so disabled tracing costs one nil check per call.
type Span struct {
	trace  *Trace
	parent *Span
	name   string
	lane   int
	worker bool
	log    *slog.Logger
	start  time.Time
	dur    time.Duration
	ended  bool
}

func (t *Trace) start(name string, parent *Span, lane int, log *slog.Logger) *Span {
	s := &Span{trace: t, parent: parent, name: name, lane: lane, log: log, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// SetCorrelation tags the trace with a correlation ID — the request ID
// of the submission that produced it. Every span of the trace belongs
// to that ID; the Chrome export carries it as a metadata event so a
// trace file can be joined back to the access and lifecycle logs.
func (t *Trace) SetCorrelation(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.corr = id
	t.mu.Unlock()
}

// Correlation returns the trace's correlation ID ("" when unset or nil).
func (t *Trace) Correlation() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.corr
}

// Start opens a root span on lane 0.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, nil, 0, nil)
}

// ChildWorker opens a per-worker sub-span on the given lane. Worker
// spans are excluded from the stage summary (they overlap their stage);
// long-lived pipeline workers that are not driven through ForEachCtx use
// this to attach themselves to their stage span.
func (s *Span) ChildWorker(name string, lane int) *Span {
	return s.childWorker(name, lane)
}

// childWorker opens a per-worker sub-span on its own lane; worker spans
// are excluded from the stage summary (they overlap their stage).
func (s *Span) childWorker(name string, lane int) *Span {
	if s == nil {
		return nil
	}
	c := s.trace.start(name, s, lane, nil)
	c.worker = true
	return c
}

// End closes the span. Ending twice, or ending a nil span, is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.log != nil {
		s.log.Debug("span", "name", s.name, "dur", s.dur)
	}
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's elapsed time (zero for nil or unended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// StageStat aggregates the spans of one stage name.
type StageStat struct {
	Name  string
	Calls int
	Total time.Duration
}

// Summary aggregates the trace's stage spans by name and returns them
// sorted by total time (descending), along with the trace's wall time
// (first span start to last span end). A stage span is a non-worker span
// with no non-worker children: per-run grouping spans (which contain the
// stages) and per-worker spans (which overlap their stage) are excluded,
// so the stage totals attribute the wall time without double counting.
func (t *Trace) Summary() ([]StageStat, time.Duration) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil, 0
	}
	grouping := make(map[*Span]bool)
	for _, s := range spans {
		if !s.worker && s.parent != nil {
			grouping[s.parent] = true
		}
	}
	byName := make(map[string]*StageStat)
	var order []string
	var first, last time.Time
	for i, s := range spans {
		end := s.start.Add(s.dur)
		if i == 0 || s.start.Before(first) {
			first = s.start
		}
		if end.After(last) {
			last = end
		}
		if s.worker || grouping[s] {
			continue
		}
		st, ok := byName[s.name]
		if !ok {
			st = &StageStat{Name: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		st.Calls++
		st.Total += s.dur
	}
	out := make([]StageStat, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Total > out[b].Total })
	return out, last.Sub(first)
}

// WriteSummary renders the stage summary as a wall-time attribution
// table: one row per stage with its share of the trace's wall time, and
// a footer with the total attributed fraction.
func WriteSummary(w io.Writer, t *Trace) error {
	stats, wall := t.Summary()
	if len(stats) == 0 {
		_, err := fmt.Fprintln(w, "obs: empty trace")
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tcalls\ttotal\t% of wall")
	var attributed time.Duration
	for _, st := range stats {
		attributed += st.Total
		fmt.Fprintf(tw, "%s\t%d\t%v\t%.1f%%\n",
			st.Name, st.Calls, st.Total.Round(time.Microsecond), pct(st.Total, wall))
	}
	fmt.Fprintf(tw, "wall\t\t%v\t%.1f%% attributed\n",
		wall.Round(time.Microsecond), pct(attributed, wall))
	return tw.Flush()
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
