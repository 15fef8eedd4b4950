// Package supervise is the crash-safe run supervisor for multi-unit
// campaigns (extract -all): it fans a unit function out over a worker
// pool with per-unit isolation — a panic or error in one unit never
// aborts the others — and an optional per-unit deadline.
//
// Each unit runs exactly once. The reconstruction is deterministic, so
// rerunning a failed unit on the same input would fail the same way: an
// error is the unit's verdict, a blown deadline would be exceeded again
// by the same computation, and a panic is a bug to surface, not to mask.
// Cancellation of the supervisor's own context is terminal for the
// whole campaign: in-flight units stop at their next cooperative check
// and queued units are never started.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// Options configures a supervised campaign.
type Options struct {
	// Timeout bounds each unit's run; 0 means no deadline. A unit that
	// exceeds it fails with context.DeadlineExceeded.
	Timeout time.Duration
	// Workers bounds the unit fan-out (see par.Count).
	Workers int
	// Obs receives panic/timeout counters and progress logs; nil
	// disables instrumentation.
	Obs *obs.Observer
}

// Status is the supervisor's per-unit report.
type Status struct {
	// Name identifies the unit (e.g. the chip ID).
	Name string
	// Started reports that the unit function ran (false only when the
	// campaign was cancelled before the unit started).
	Started bool
	// Err is the unit's error: nil on success, a *par.PanicError if the
	// unit panicked.
	Err error
	// Interrupted reports that the unit did not fail on its own merits:
	// the supervisor's context was canceled while the unit was running
	// or still queued. An interrupted unit's Err is circumstantial (the
	// run it abandoned, or the context error itself) — callers that
	// persist outcomes should record the unit as interrupted, not
	// failed, and resubmit it after restart.
	Interrupted bool
	// Duration is the wall time spent on the unit.
	Duration time.Duration
}

// Run executes fn once per unit name under the supervision contract and
// returns the per-unit statuses in input order plus the campaign error:
// nil when every unit succeeded, otherwise an errors.Join of the failed
// units' errors in input order (prefixed with the supervisor context's
// own error when the campaign was cancelled). The statuses are always
// complete — a campaign error never hides the units that succeeded.
func Run(ctx context.Context, names []string, fn func(ctx context.Context, i int) error, o Options) ([]Status, error) {
	statuses := make([]Status, len(names))
	for i, name := range names {
		statuses[i] = Status{Name: name}
	}
	// The fan-out itself never returns unit errors: each unit's outcome
	// lands in its Status, so one failure cannot abort the others. Only
	// a cancelled context stops the pool early.
	_ = par.ForEachCtx(ctx, par.Config{Workers: o.Workers}, len(names), func(ctx context.Context, i int) error {
		statuses[i] = runUnit(ctx, names[i], i, fn, o)
		return nil
	})
	errs := make([]error, 0, len(names)+1)
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
		// Units the cancelled pool never started still need an honest
		// status.
		for i := range statuses {
			if !statuses[i].Started {
				statuses[i].Err = fmt.Errorf("not started: %w", err)
				statuses[i].Interrupted = true
			}
		}
	}
	for i := range statuses {
		if statuses[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", statuses[i].Name, statuses[i].Err))
		}
	}
	return statuses, errors.Join(errs...)
}

// runUnit runs one unit under its deadline, converting a panic into a
// *par.PanicError instead of tearing down the pool, and classifies the
// outcome.
func runUnit(ctx context.Context, name string, i int, fn func(ctx context.Context, i int) error, o Options) Status {
	st := Status{Name: name, Started: true}
	start := time.Now()
	uctx := ctx
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		uctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	st.Err = par.Call(i, func() error {
		err := fn(uctx, i)
		// A deterministic pipeline surfaces a blown deadline as
		// whatever stage error wrapped ctx.Err(); normalize so the
		// check below is uniform.
		if err != nil && uctx.Err() == context.DeadlineExceeded && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w: %w", context.DeadlineExceeded, err)
		}
		return err
	})
	st.Duration = time.Since(start)
	if st.Err == nil {
		return st
	}
	if ctx.Err() != nil {
		// The campaign is shutting down: the unit did not run to a
		// verdict, so mark it interrupted rather than failed — a
		// journaling caller must resubmit it, not record a terminal
		// failure.
		st.Interrupted = true
		return st
	}
	var p *par.PanicError
	switch {
	case errors.As(st.Err, &p):
		o.Obs.Count("supervise.panics", 1)
		o.Obs.Info("unit panicked", "unit", name, "err", st.Err)
	case errors.Is(st.Err, context.DeadlineExceeded):
		o.Obs.Count("supervise.timeouts", 1)
		o.Obs.Info("unit deadline exceeded", "unit", name, "timeout", o.Timeout)
	}
	return st
}
