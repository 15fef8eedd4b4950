package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilObserverIsInert(t *testing.T) {
	// Every method of a nil observer, trace, span and metrics must be
	// safe: the pipeline calls them unguarded.
	var o *Observer
	sp := o.StartSpan("x")
	sp.End()
	sp.End() // double end
	if sp.Name() != "" || sp.Duration() != 0 {
		t.Errorf("nil span leaks state: %q %v", sp.Name(), sp.Duration())
	}
	o.Count("c", 1)
	o.Gauge("g", 2)
	o.ObserveDur("d", time.Second)
	o.Info("msg", "k", "v")
	o.Debug("msg", "k", "v")
	if o.Snapshot() != nil {
		t.Error("nil observer snapshot should be nil")
	}
	if o.WithLane(3) != nil || o.WithSpan(nil) != nil {
		t.Error("With* on nil observer should stay nil")
	}
	var tr *Trace
	if s := tr.Start("x"); s != nil {
		t.Error("nil trace Start should return nil span")
	}
	if stats, wall := tr.Summary(); stats != nil || wall != 0 {
		t.Error("nil trace summary should be empty")
	}
	var m *Metrics
	m.Add("c", 1)
	m.Set("g", 1)
	m.Observe("d", time.Second)
	if m.Snapshot() != nil {
		t.Error("nil metrics snapshot should be nil")
	}
}

func TestObserverWithOnlyMetricsSkipsSpans(t *testing.T) {
	o := &Observer{Metrics: NewMetrics()}
	if sp := o.StartSpan("x"); sp != nil {
		t.Error("traceless observer should hand out nil spans")
	}
	o.Count("c", 2)
	o.Count("c", 3)
	if got := o.Snapshot().Counters["c"]; got != 5 {
		t.Errorf("counter c = %d, want 5", got)
	}
}

func TestTraceSummaryAggregatesStages(t *testing.T) {
	tr := NewTrace()
	o := &Observer{Trace: tr}
	for i := 0; i < 3; i++ {
		sp := o.StartSpan("denoise")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	sp := o.StartSpan("align")
	time.Sleep(time.Millisecond)
	sp.End()
	stats, wall := tr.Summary()
	if len(stats) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(stats), stats)
	}
	byName := map[string]StageStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if byName["denoise"].Calls != 3 || byName["align"].Calls != 1 {
		t.Errorf("calls: %+v", byName)
	}
	if wall <= 0 || byName["denoise"].Total <= 0 {
		t.Errorf("wall %v, denoise total %v", wall, byName["denoise"].Total)
	}
	// Stage totals cannot exceed the wall clock for sequential spans.
	if sum := byName["denoise"].Total + byName["align"].Total; sum > wall+time.Millisecond {
		t.Errorf("attributed %v exceeds wall %v", sum, wall)
	}
}

func TestSummaryExcludesGroupingAndWorkerSpans(t *testing.T) {
	tr := NewTrace()
	o := &Observer{Trace: tr}
	chip := o.StartSpan("chip C4")
	co := o.WithSpan(chip)
	st := co.StartSpan("denoise")
	w0 := st.childWorker("denoise/worker0", 1)
	w0.End()
	st.End()
	chip.End()
	stats, _ := tr.Summary()
	if len(stats) != 1 || stats[0].Name != "denoise" {
		t.Fatalf("summary should contain only the stage span, got %+v", stats)
	}
}

func TestWriteChromeRoundTrips(t *testing.T) {
	tr := NewTrace()
	o := &Observer{Trace: tr}
	sp := o.StartSpan("generate")
	time.Sleep(time.Millisecond)
	sp.End()
	w := sp.childWorker("generate/worker0", 2)
	w.End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var xEvents, mEvents int
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
			seen[e.Name] = true
			if e.Name == "generate" && e.Dur <= 0 {
				t.Errorf("generate span has dur %v", e.Dur)
			}
		case "M":
			mEvents++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	if xEvents != 2 || !seen["generate"] || !seen["generate/worker0"] {
		t.Errorf("X events: %d, names %v", xEvents, seen)
	}
	if mEvents != 2 { // lanes 0 and 2
		t.Errorf("M (thread_name) events: %d, want 2", mEvents)
	}
	// A nil trace still writes a loadable document.
	buf.Reset()
	var nilTrace *Trace
	if err := nilTrace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace output invalid: %v", err)
	}
}

func TestWriteSummaryAttribution(t *testing.T) {
	tr := NewTrace()
	o := &Observer{Trace: tr}
	sp := o.StartSpan("denoise")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	var buf bytes.Buffer
	if err := WriteSummary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "denoise") || !strings.Contains(out, "% attributed") {
		t.Errorf("summary missing stage row or footer:\n%s", out)
	}
	buf.Reset()
	if err := WriteSummary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty trace") {
		t.Errorf("nil trace summary: %q", buf.String())
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Add("evals", 10)
	m.Add("evals", 5)
	m.Set("overlap", 0.93)
	m.Observe("busy", 2*time.Millisecond)
	m.Observe("busy", 4*time.Millisecond)
	snap := m.Snapshot()
	if snap.Counters["evals"] != 15 {
		t.Errorf("evals = %d", snap.Counters["evals"])
	}
	if snap.Gauges["overlap"] != 0.93 {
		t.Errorf("overlap = %v", snap.Gauges["overlap"])
	}
	d := snap.Histograms["busy"]
	if d == nil || d.Count != 2 || !approxEq(d.Sum, 0.006, 1e-12) {
		t.Fatalf("busy = %+v", d)
	}
	if d.Counts[bucketIndex(0.002)] != 1 || d.Counts[bucketIndex(0.004)] != 1 {
		t.Errorf("busy buckets = %v", d.Counts)
	}
	// The snapshot is detached: later writes don't mutate it.
	m.Add("evals", 100)
	if snap.Counters["evals"] != 15 {
		t.Error("snapshot shares state with live metrics")
	}
}

func TestMetricsMerge(t *testing.T) {
	dst := NewMetrics()
	dst.Add("jobs", 1)
	dst.Set("depth", 3)
	dst.Observe("wait", 10*time.Millisecond)

	src := NewMetrics()
	src.Add("jobs", 2)
	src.Add("runs", 1)
	src.Set("depth", 5)
	src.Observe("wait", 2*time.Millisecond)
	src.Observe("wait", 20*time.Millisecond)

	dst.Merge(src.Snapshot())
	snap := dst.Snapshot()
	if snap.Counters["jobs"] != 3 || snap.Counters["runs"] != 1 {
		t.Errorf("merged counters = %v", snap.Counters)
	}
	if snap.Gauges["depth"] != 5 {
		t.Errorf("merged gauge = %v", snap.Gauges["depth"])
	}
	d := snap.Histograms["wait"]
	if d == nil || d.Count != 3 || !approxEq(d.Sum, 0.032, 1e-12) {
		t.Fatalf("merged duration = %+v", d)
	}
	for _, v := range []float64{0.002, 0.010, 0.020} {
		if d.Counts[bucketIndex(v)] != 1 {
			t.Errorf("merged buckets = %v, want one observation at %gs", d.Counts, v)
		}
	}
	// Merging nil or into nil is inert.
	dst.Merge(nil)
	var nilm *Metrics
	nilm.Merge(src.Snapshot())
	if got := dst.Snapshot().Counters["jobs"]; got != 3 {
		t.Errorf("nil merge mutated counters: %d", got)
	}
}

func TestObserverForEachMatchesPlain(t *testing.T) {
	// The instrumented fan-out must cover the same indices with the same
	// results as the plain one, observer or not.
	for _, o := range []*Observer{
		nil,
		{Trace: NewTrace(), Metrics: NewMetrics()},
	} {
		const n = 64
		hits := make([]atomic.Int32, n)
		err := o.ForEachCtx(context.Background(), "stage", 4, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("observer=%v: index %d ran %d times", o != nil, i, hits[i].Load())
			}
		}
	}
}

func TestObserverForEachRecordsSpanAndWorkerMetrics(t *testing.T) {
	o := &Observer{Trace: NewTrace(), Metrics: NewMetrics()}
	if err := o.ForEachCtx(context.Background(), "denoise", 3, 9, func(context.Context, int) error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stats, _ := o.Trace.Summary()
	if len(stats) != 1 || stats[0].Name != "denoise" || stats[0].Calls != 1 {
		t.Fatalf("stage summary: %+v", stats)
	}
	snap := o.Snapshot()
	busy := snap.Histograms["par.worker_busy"]
	if busy == nil || busy.Count != 3 || busy.Sum <= 0 {
		t.Errorf("worker_busy = %+v, want 3 workers with nonzero time", busy)
	}
	if wait := snap.Histograms["par.queue_wait"]; wait == nil || wait.Count != 3 {
		t.Errorf("queue_wait = %+v", wait)
	}
}

func TestObserverLogLevels(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{Log: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))}
	o.Info("progress", "stage", "align")
	o.Debug("detail", "slice", 3)
	out := buf.String()
	if !strings.Contains(out, "progress") {
		t.Error("Info event missing")
	}
	if strings.Contains(out, "detail") {
		t.Error("Debug event should be filtered at info level")
	}
}

func TestSpanDebugLogOnEnd(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := &Observer{Trace: NewTrace(), Log: log}
	sp := o.StartSpan("netex")
	sp.End()
	if !strings.Contains(buf.String(), "netex") {
		t.Errorf("span end should log at debug level: %q", buf.String())
	}
}
