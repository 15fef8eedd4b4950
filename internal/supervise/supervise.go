// Package supervise is the crash-safe run supervisor for multi-unit
// campaigns (extract -all): it fans a unit function out over a worker
// pool with per-unit isolation — a panic or error in one unit never
// aborts the others — per-attempt deadlines, and bounded retry with
// exponential backoff and deterministic jitter.
//
// The retry taxonomy is explicit. An error is retried only when the
// unit function marked it retryable (MarkRetryable) — the signature of
// transient conditions like a checkpoint store briefly unwritable.
// Everything else is terminal for its unit: deterministic pipeline
// errors would fail identically on every attempt, a per-attempt
// deadline would be exceeded again by the same computation, and a panic
// is a bug to surface, not to mask by rerunning. Cancellation of the
// supervisor's own context is terminal for the whole campaign: in-flight
// units stop at their next cooperative check and queued units are never
// started.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options configures a supervised campaign.
type Options struct {
	// Timeout bounds each attempt of each unit; 0 means no deadline.
	// An attempt that exceeds it fails with context.DeadlineExceeded,
	// which is terminal (the same computation would time out again).
	Timeout time.Duration
	// Retries is the number of additional attempts after a retryable
	// failure (so Retries=2 means at most 3 attempts).
	Retries int
	// Backoff is the delay before the first retry; each further retry
	// doubles it. Zero defaults to time.Second.
	Backoff time.Duration
	// MaxBackoff caps the exponential delay (jitter included), so a
	// high attempt count can never overflow the doubling into a
	// negative duration — a negative delay makes timers fire
	// immediately and turns backoff into a hot retry loop. Zero
	// defaults to 30s.
	MaxBackoff time.Duration
	// JitterSeed drives the deterministic jitter (±25% of the delay)
	// added to each backoff so colliding units decorrelate
	// reproducibly.
	JitterSeed int64
	// Workers bounds the unit fan-out (see par.Count).
	Workers int
	// Obs receives retry/failure counters and progress logs; nil
	// disables instrumentation.
	Obs *obs.Observer
}

// Status is the supervisor's per-unit report.
type Status struct {
	// Name identifies the unit (e.g. the chip ID).
	Name string
	// Attempts is how many times the unit function ran (>= 1 unless the
	// campaign was cancelled before the unit started).
	Attempts int
	// Err is the unit's final error: nil on success, the last attempt's
	// error otherwise (a *par.PanicError if the attempt panicked).
	Err error
	// Interrupted reports that the unit did not fail on its own merits:
	// the supervisor's context was canceled while the unit was running,
	// waiting in retry backoff, or still queued. An interrupted unit's
	// Err is circumstantial (the attempt it abandoned, or the context
	// error itself) — callers that persist outcomes should record the
	// unit as interrupted, not failed, and resubmit it after restart.
	Interrupted bool
	// Duration is the wall time spent on the unit across all attempts,
	// backoff sleeps included.
	Duration time.Duration
}

// retryableError marks an error as worth another attempt.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// MarkRetryable wraps err so the supervisor will retry the unit (up to
// Options.Retries). A nil err stays nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable reports whether err (or anything it wraps) was marked
// with MarkRetryable.
func IsRetryable(err error) bool {
	var r *retryableError
	return errors.As(err, &r)
}

// Run executes fn once per unit name under the supervision contract and
// returns the per-unit statuses in input order plus the campaign error:
// nil when every unit succeeded, otherwise an errors.Join of the failed
// units' errors in input order (prefixed with the supervisor context's
// own error when the campaign was cancelled). The statuses are always
// complete — a campaign error never hides the units that succeeded.
func Run(ctx context.Context, names []string, fn func(ctx context.Context, i int) error, o Options) ([]Status, error) {
	if o.Backoff <= 0 {
		o.Backoff = time.Second
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 30 * time.Second
	}
	if o.Backoff > o.MaxBackoff {
		o.Backoff = o.MaxBackoff
	}
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
			if statuses[i].Attempts == 0 && statuses[i].Err == nil {
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

// runUnit drives one unit through its attempt/backoff loop. The status
// is a named return so the deferred Duration stamp survives every exit
// path.
func runUnit(ctx context.Context, name string, i int, fn func(ctx context.Context, i int) error, o Options) (st Status) {
	st = Status{Name: name}
	start := time.Now()
	defer func() { st.Duration = time.Since(start) }()
	// Jitter is seeded per unit, not shared: the sequence each unit
	// draws is independent of scheduling order and worker count.
	rng := rand.New(rand.NewSource(o.JitterSeed + int64(i)*7919))
	for {
		st.Attempts++
		err := attempt(ctx, i, fn, o.Timeout)
		st.Err = err
		if err == nil {
			return st
		}
		if ctx.Err() != nil {
			// The campaign is shutting down; whatever the attempt
			// reported, do not retry into a cancelled context. The unit
			// did not run to a verdict, so mark it interrupted rather
			// than failed — a journaling caller must resubmit it, not
			// record a terminal failure.
			st.Interrupted = true
			return st
		}
		var p *par.PanicError
		switch {
		case errors.As(err, &p):
			o.Obs.Count("supervise.panics", 1)
			o.Obs.Info("unit panicked", "unit", name, "attempt", st.Attempts, "err", err)
			return st
		case errors.Is(err, context.DeadlineExceeded):
			o.Obs.Count("supervise.timeouts", 1)
			o.Obs.Info("unit deadline exceeded", "unit", name, "attempt", st.Attempts, "timeout", o.Timeout)
			return st
		case !IsRetryable(err) || st.Attempts > o.Retries:
			return st
		}
		delay := backoff(o.Backoff, o.MaxBackoff, st.Attempts, rng)
		o.Obs.Count("supervise.retries", 1)
		o.Obs.Info("retrying unit", "unit", name, "attempt", st.Attempts, "delay", delay, "err", err)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			// Shutdown landed mid-backoff: the retry the unit earned
			// never ran, so this outcome is an interruption too.
			st.Interrupted = true
			return st
		}
	}
}

// attempt runs fn once under the per-attempt deadline, converting a
// panic into a *par.PanicError instead of tearing down the pool.
func attempt(ctx context.Context, i int, fn func(ctx context.Context, i int) error, timeout time.Duration) error {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return par.Call(i, func() error {
		// Injected attempt failures are transient by definition: they
		// exercise the retry/backoff loop deterministically. A
		// panic-kind failpoint lands in par.Call's recover and stays
		// terminal, matching the real taxonomy.
		if ferr := failpoint.Inject("supervise.attempt"); ferr != nil {
			return MarkRetryable(ferr)
		}
		err := fn(actx, i)
		// A deterministic pipeline surfaces a blown deadline as
		// whatever stage error wrapped ctx.Err(); normalize so the
		// caller's taxonomy check is uniform.
		if err != nil && actx.Err() == context.DeadlineExceeded && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w: %w", context.DeadlineExceeded, err)
		}
		return err
	})
}

// backoff returns the exponential delay for the given completed attempt
// count with ±25% deterministic jitter, capped at max. The doubling is
// clamped before it can overflow time.Duration (a naive base << attempts
// wraps negative past ~2^63 ns, and a negative delay fires timers
// immediately), and exactly one jitter draw is consumed on every path so
// the per-unit jitter sequence stays aligned with the attempt number.
func backoff(base, max time.Duration, attempts int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempts && d < max; i++ {
		d <<= 1
		if d <= 0 {
			// The shift wrapped; the cap is the honest value.
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	jitter := 0.75 + rng.Float64()/2
	if jd := time.Duration(float64(d) * jitter); jd < max {
		return jd
	}
	return max
}
