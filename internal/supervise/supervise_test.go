package supervise

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

func twoWorkers() Options {
	return Options{Workers: 2}
}

func TestAllUnitsSucceed(t *testing.T) {
	names := []string{"a", "b", "c"}
	var ran atomic.Int32
	sts, err := Run(context.Background(), names, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	}, twoWorkers())
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d units, want 3", got)
	}
	for i, st := range sts {
		if st.Name != names[i] || !st.Started || st.Err != nil {
			t.Errorf("status[%d] = %+v", i, st)
		}
	}
}

// One failing unit must not abort the others, and the campaign error
// must name exactly the failed unit.
func TestFailureIsolated(t *testing.T) {
	boom := errors.New("boom")
	sts, err := Run(context.Background(), []string{"a", "b", "c"}, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		return nil
	}, twoWorkers())
	if !errors.Is(err, boom) {
		t.Fatalf("campaign err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "b:") {
		t.Errorf("campaign err does not name the failed unit: %v", err)
	}
	if sts[0].Err != nil || sts[2].Err != nil {
		t.Errorf("healthy units carry errors: %+v", sts)
	}
	if !errors.Is(sts[1].Err, boom) {
		t.Errorf("failed unit status: %+v", sts[1])
	}
}

// A panicking unit is confined to its status as a *par.PanicError and
// counted; the process and the sibling units survive.
func TestPanicIsolated(t *testing.T) {
	o := twoWorkers()
	o.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	sts, err := Run(context.Background(), []string{"a", "b"}, func(ctx context.Context, i int) error {
		if i == 0 {
			panic("poisoned unit")
		}
		return nil
	}, o)
	if err == nil {
		t.Fatal("campaign error is nil despite panic")
	}
	var p *par.PanicError
	if !errors.As(sts[0].Err, &p) {
		t.Fatalf("status[0].Err = %v, want *par.PanicError", sts[0].Err)
	}
	if p.Stack == "" {
		t.Error("panic stack not captured")
	}
	if n := o.Obs.Snapshot().Counters["supervise.panics"]; n != 1 {
		t.Errorf("supervise.panics = %d, want 1", n)
	}
	if sts[1].Err != nil {
		t.Errorf("sibling unit affected: %v", sts[1].Err)
	}
}

// The deadline cancels the unit's context and surfaces as
// context.DeadlineExceeded even when the unit wraps it; the unit is
// counted and runs once.
func TestPerAttemptTimeout(t *testing.T) {
	o := twoWorkers()
	o.Timeout = 10 * time.Millisecond
	o.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	var calls atomic.Int32
	sts, err := Run(context.Background(), []string{"slow"}, func(ctx context.Context, i int) error {
		calls.Add(1)
		<-ctx.Done()
		return fmt.Errorf("stage aborted: %w", ctx.Err())
	}, o)
	if err == nil {
		t.Fatal("want campaign error")
	}
	if !errors.Is(sts[0].Err, context.DeadlineExceeded) {
		t.Errorf("status err = %v, want DeadlineExceeded", sts[0].Err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("timed-out unit ran %d times, want 1", got)
	}
	if sts[0].Interrupted {
		t.Errorf("timed-out unit marked interrupted: %+v", sts[0])
	}
	if n := o.Obs.Snapshot().Counters["supervise.timeouts"]; n != 1 {
		t.Errorf("supervise.timeouts = %d, want 1", n)
	}
}

// Cancelling the supervisor context stops the campaign: in-flight units
// see their context cancelled, queued units never start but still get
// an honest "not started" status, and the campaign error leads with the
// context's error.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("u%02d", i)
	}
	o := twoWorkers()
	started := make(chan struct{}, 1)
	sts, err := Run(ctx, names, func(ctx context.Context, i int) error {
		select {
		case started <- struct{}{}:
			cancel()
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	}, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign err = %v, want context.Canceled", err)
	}
	var notStarted int
	for _, st := range sts {
		if !st.Started {
			notStarted++
			if st.Err == nil || !strings.Contains(st.Err.Error(), "not started") {
				t.Errorf("queued unit %s has status %v", st.Name, st.Err)
			}
		}
	}
	if notStarted == 0 {
		t.Error("expected some units to never start after cancellation")
	}
}

// Status.Duration reports the unit's real wall time (regression: a
// mis-scoped defer used to leave it zero on every path).
func TestStatusDurationStamped(t *testing.T) {
	sts, err := Run(context.Background(), []string{"timed"}, func(ctx context.Context, i int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}, twoWorkers())
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Duration < 5*time.Millisecond {
		t.Errorf("Duration = %v, want >= 5ms", sts[0].Duration)
	}
}

// TestInterruptedMidAttempt: cancellation while the unit is running is
// an interruption too.
func TestInterruptedMidAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{})
	done := make(chan struct{})
	var sts []Status
	go func() {
		defer close(done)
		sts, _ = Run(ctx, []string{"u"}, func(ctx context.Context, i int) error {
			close(running)
			<-ctx.Done()
			return ctx.Err()
		}, Options{Workers: 1})
	}()
	<-running
	cancel()
	<-done
	if !sts[0].Interrupted {
		t.Fatalf("status not marked interrupted: %+v", sts[0])
	}
}

// TestNotStartedUnitsInterrupted: units the canceled pool never reached
// report interrupted with the "not started" cause.
func TestNotStartedUnitsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan struct{})
	var sts []Status
	go func() {
		defer close(done)
		sts, _ = Run(ctx, []string{"a", "b", "c"}, func(ctx context.Context, i int) error {
			if i == 0 {
				close(started)
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}, Options{Workers: 1})
	}()
	<-started
	cancel()
	<-done
	interrupted := 0
	for _, st := range sts {
		if st.Interrupted {
			interrupted++
		}
		if !st.Started && !st.Interrupted {
			t.Fatalf("never-started unit %s not interrupted: %+v", st.Name, st)
		}
	}
	if interrupted == 0 {
		t.Fatal("no unit marked interrupted")
	}
}

// TestTerminalFailureNotInterrupted: an ordinary deterministic failure
// (no cancellation anywhere) must never read as interrupted.
func TestTerminalFailureNotInterrupted(t *testing.T) {
	sts, _ := Run(context.Background(), []string{"u"}, func(ctx context.Context, i int) error {
		return errors.New("deterministic")
	}, twoWorkers())
	if sts[0].Interrupted {
		t.Fatalf("terminal failure marked interrupted: %+v", sts[0])
	}
}

// TestOptionsFieldCount pins the exported fields of Options. Each one
// multiplies the configurations callers and tests must cover, so a new
// field changes this pin together with the reason a caller needs it.
func TestOptionsFieldCount(t *testing.T) {
	const want = 3
	if got := len(reflect.VisibleFields(reflect.TypeOf(Options{}))); got != want {
		t.Errorf("Options has %d fields, want %d", got, want)
	}
}
