package core

import (
	"context"
	"io"
	"log/slog"
	"reflect"
	"testing"

	"repro/internal/chips"
	"repro/internal/fault"
	"repro/internal/obs"
)

// fullObserver attaches every sink: spans, metrics and a debug-level
// logger writing to io.Discard, so every instrumentation path executes.
func fullObserver() *obs.Observer {
	return &obs.Observer{
		Trace:   obs.NewTrace(),
		Metrics: obs.NewMetrics(),
		Log:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
	}
}

// stripTelemetry returns a copy of the result without the telemetry
// snapshot, which is the one field allowed to differ between an
// observed and an unobserved run.
func stripTelemetry(res *Result) Result {
	c := *res
	c.Telemetry = nil
	return c
}

// The no-perturbation contract: a fully observed run — spans, metrics
// and debug logging all live — produces exactly the result of an
// unobserved run, for any worker count, including on the fault-injected
// self-healing path.
func TestRunByteIdenticalWithObservability(t *testing.T) {
	chip := chips.ByID("B4")
	opts := func() Options {
		o := fastOptions()
		p := fault.DefaultPlan()
		o.Faults = &p
		return o
	}

	o := opts()
	o.Workers = 2
	base, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.Telemetry != nil {
		t.Error("unobserved run should carry no telemetry")
	}

	o = opts()
	o.Workers = 2
	o.Obs = fullObserver()
	observed, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTelemetry(observed), stripTelemetry(base)) {
		t.Errorf("observability perturbed the result")
	}

	o5 := opts()
	o5.Workers = 5
	o5.Obs = fullObserver()
	observed5, err := RunCtx(context.Background(), chip, o5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTelemetry(observed5), stripTelemetry(base)) {
		t.Errorf("observability at 5 workers perturbed the result")
	}

	// Counter values are part of the determinism contract: they count
	// work items, not time, so the whole counter map must reproduce
	// across worker counts (durations, by design, do not).
	if observed.Telemetry == nil || observed5.Telemetry == nil {
		t.Fatal("observed runs should carry telemetry")
	}
	if !reflect.DeepEqual(observed.Telemetry.Counters, observed5.Telemetry.Counters) {
		t.Errorf("counters differ across worker counts:\n2: %v\n5: %v",
			observed.Telemetry.Counters, observed5.Telemetry.Counters)
	}

	// The faulted run must have exercised the interesting counters.
	c := observed.Telemetry.Counters
	if c["register.mi_evals"] <= 0 {
		t.Errorf("register.mi_evals = %d, want > 0", c["register.mi_evals"])
	}
	if c["denoise.slices"] <= 0 || c["denoise.iterations"] <= 0 {
		t.Errorf("denoise counters missing: %v", c)
	}
	if c["quality.repaired"] <= 0 {
		t.Errorf("quality.repaired = %d, want > 0 on a faulted run", c["quality.repaired"])
	}
	var injected, detected int64
	for name, v := range c {
		switch {
		case len(name) > 15 && name[:15] == "fault.injected.":
			injected += v
		case len(name) > 15 && name[:15] == "quality.detect.":
			detected += v
		}
	}
	if injected <= 0 || detected <= 0 {
		t.Errorf("per-kind fault counters missing: injected %d, detected %d (%v)",
			injected, detected, c)
	}
	if int64(len(observed.Injected.Injected)) != injected {
		t.Errorf("fault.injected.* sums to %d, report says %d",
			injected, len(observed.Injected.Injected))
	}
	if int64(len(observed.Repairs.Repairs)) != c["quality.repaired"] {
		t.Errorf("quality.repaired = %d, report says %d",
			c["quality.repaired"], len(observed.Repairs.Repairs))
	}

	// Every canonical stage plus the conditional inject span must be in
	// the trace.
	stats, _ := o.Obs.Trace.Summary()
	seen := map[string]bool{}
	for _, st := range stats {
		seen[st.Name] = true
	}
	for _, stage := range append(Stages(), StageInject) {
		if !seen[stage] {
			t.Errorf("stage %q missing from trace summary (have %v)", stage, stats)
		}
	}
}

// The cheaper half of the contract: ReconstructCtx alone, observed vs not,
// on the shared acquisition.
func TestReconstructUnperturbedByObservability(t *testing.T) {
	acq, window := testAcquisition(t)
	o := fastOptions()
	o.Workers = 3
	wantPlan, wantInfo, err := ReconstructCtx(context.Background(), acq, window, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Obs = fullObserver()
	gotPlan, gotInfo, err := ReconstructCtx(context.Background(), acq, window, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotInfo, wantInfo) {
		t.Errorf("observed recon info %+v != %+v", gotInfo, wantInfo)
	}
	if !reflect.DeepEqual(gotPlan, wantPlan) {
		t.Errorf("observed plan differs from unobserved plan")
	}
}

// Stages' canonical list and the stage constants must stay in sync: the
// tracecheck subcommand and the trace-smoke CI target validate traces
// against this exact set.
func TestStagesCanonicalList(t *testing.T) {
	want := []string{
		StageGenerate, StageAcquire, StageQualityGate, StageDenoise,
		StageAlign, StageAssemble, StageReslice, StageSegment,
		StageNetex, StageMeasure, StageScore,
	}
	if !reflect.DeepEqual(Stages(), want) {
		t.Errorf("Stages() = %v", Stages())
	}
	if len(Stages()) != 11 {
		t.Errorf("canonical stage count = %d", len(Stages()))
	}
}
