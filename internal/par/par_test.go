package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCount(t *testing.T) {
	for _, req := range []int{0, -1, -100} {
		if got := Count(req); got != runtime.NumCPU() {
			t.Errorf("Count(%d) = %d, want NumCPU %d", req, got, runtime.NumCPU())
		}
	}
	for _, req := range []int{1, 2, 17} {
		if got := Count(req); got != req {
			t.Errorf("Count(%d) = %d", req, got)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		const n = 257
		hits := make([]atomic.Int32, n)
		err := ForEachCtx(context.Background(), Config{Workers: workers}, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachAggregatesAllErrorsLowestFirst(t *testing.T) {
	fail7 := errors.New("fail at 7")
	fail63 := errors.New("fail at 63")
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), Config{Workers: workers}, 100, func(_ context.Context, i int) error {
			switch i {
			case 7:
				return fail7
			case 63:
				return fail63
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		// Both failures are reported, lowest index first, and each is
		// reachable through errors.Is.
		if err.Error() != "fail at 7\nfail at 63" {
			t.Errorf("workers=%d: err = %q, want both failures in index order", workers, err)
		}
		if !errors.Is(err, fail7) || !errors.Is(err, fail63) {
			t.Errorf("workers=%d: joined error loses individual failures", workers)
		}
	}
}

func TestForEachSingleErrorMessageUnchanged(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), Config{Workers: workers}, 20, func(_ context.Context, i int) error {
			if i == 3 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Errorf("workers=%d: err = %v, want the single failure verbatim", workers, err)
		}
	}
}

func TestForEachRecoversWorkerPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]atomic.Int32, 50)
		err := ForEachCtx(context.Background(), Config{Workers: workers}, 50, func(_ context.Context, i int) error {
			ran[i].Add(1)
			if i == 11 {
				panic("poisoned slice")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic should surface as an error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %T is not a *PanicError", workers, err)
		}
		if pe.Index != 11 || pe.Value != "poisoned slice" || pe.Stack == "" {
			t.Errorf("workers=%d: PanicError = {%d %v stack:%d bytes}", workers, pe.Index, pe.Value, len(pe.Stack))
		}
		// The poisoned index must not have killed the other indices.
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times after panic at 11", workers, i, ran[i].Load())
			}
		}
	}
}

func TestForEachPanicAndErrorsJoin(t *testing.T) {
	err := ForEachCtx(context.Background(), Config{Workers: 4}, 30, func(_ context.Context, i int) error {
		if i == 5 {
			panic(i)
		}
		if i == 20 {
			return fmt.Errorf("plain failure")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 5 {
		t.Errorf("panic at 5 lost in join: %v", err)
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "index 5 panicked") || lines[1] != "plain failure" {
		t.Errorf("joined message %q not in index order", err)
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	if err := ForEachCtx(context.Background(), Config{Workers: 4}, 0, func(context.Context, int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	ran := 0
	if err := ForEachCtx(context.Background(), Config{Workers: 8}, 1, func(_ context.Context, i int) error { ran++; return nil }); err != nil || ran != 1 {
		t.Errorf("n=1: ran=%d err=%v", ran, err)
	}
}

func TestForEachDeterministicOutput(t *testing.T) {
	// Index-addressed writes make the result independent of scheduling.
	const n = 500
	ref := make([]int, n)
	ForEachCtx(context.Background(), Config{Workers: 1}, n, func(_ context.Context, i int) error { ref[i] = i * i; return nil })
	got := make([]int, n)
	ForEachCtx(context.Background(), Config{Workers: 16}, n, func(_ context.Context, i int) error { got[i] = i * i; return nil })
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("index %d: %d != %d", i, got[i], ref[i])
		}
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		workers, tasks     int
		wantFan, wantInner int
	}{
		{8, 2, 2, 4},
		{8, 3, 3, 2},
		{8, 8, 8, 1},
		{4, 6, 4, 1},
		{1, 6, 1, 1},
		{5, 2, 2, 2},
	}
	for _, c := range cases {
		fan, inner := SplitBudget(c.workers, c.tasks)
		if fan != c.wantFan || inner != c.wantInner {
			t.Errorf("SplitBudget(%d, %d) = (%d, %d), want (%d, %d)",
				c.workers, c.tasks, fan, inner, c.wantFan, c.wantInner)
		}
	}
	// Zero tasks must not divide by zero: the whole budget comes back as
	// inner with a zero fan-out.
	fan, inner := SplitBudget(6, 0)
	if fan != 0 || inner != 6 {
		t.Errorf("SplitBudget(6, 0) = (%d, %d), want (0, 6)", fan, inner)
	}
	fan, inner = SplitBudget(6, -3)
	if fan != 0 || inner != 6 {
		t.Errorf("SplitBudget(6, -3) = (%d, %d), want (0, 6)", fan, inner)
	}
	// The default budget (workers <= 0) normalizes through Count.
	fan, inner = SplitBudget(0, 1)
	if fan != 1 || inner != runtime.NumCPU() {
		t.Errorf("SplitBudget(0, 1) = (%d, %d), want (1, NumCPU)", fan, inner)
	}
}

func TestForEachHookedObservesEveryWorkerAndUnit(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var workerCalls, finishCalls atomic.Int32
		var unitStarts, unitEnds atomic.Int32
		const n = 40
		h := Hooks{Worker: func(w int) (func(int) func(), func()) {
			workerCalls.Add(1)
			if w < 0 || w >= workers {
				t.Errorf("worker id %d outside [0, %d)", w, workers)
			}
			task := func(int) func() {
				unitStarts.Add(1)
				return func() { unitEnds.Add(1) }
			}
			finish := func() { finishCalls.Add(1) }
			return task, finish
		}}
		hits := make([]atomic.Int32, n)
		err := ForEachCtx(context.Background(), Config{Workers: workers, Hooks: h}, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
		if got := workerCalls.Load(); got != int32(workers) {
			t.Errorf("workers=%d: Worker hook called %d times", workers, got)
		}
		if got := finishCalls.Load(); got != int32(workers) {
			t.Errorf("workers=%d: finish hook called %d times", workers, got)
		}
		if unitStarts.Load() != n || unitEnds.Load() != n {
			t.Errorf("workers=%d: unit hooks %d/%d, want %d/%d",
				workers, unitStarts.Load(), unitEnds.Load(), n, n)
		}
	}
}

func TestForEachHookedUnitEndRunsAfterPanic(t *testing.T) {
	var ends atomic.Int32
	h := Hooks{Worker: func(int) (func(int) func(), func()) {
		return func(int) func() { return func() { ends.Add(1) } }, nil
	}}
	err := ForEachCtx(context.Background(), Config{Workers: 2, Hooks: h}, 10, func(_ context.Context, i int) error {
		if i == 4 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 4 {
		t.Fatalf("panic not surfaced: %v", err)
	}
	if ends.Load() != 10 {
		t.Errorf("unit end hook ran %d times, want 10 (including the panicked unit)", ends.Load())
	}
}

func TestForEachCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEachCtx(ctx, Config{Workers: 4}, 100, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d indices ran under a pre-cancelled context", ran.Load())
	}
}

func TestForEachCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachCtx(ctx, Config{Workers: workers}, 1000, func(_ context.Context, i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Workers stop at the next index boundary: with w workers at most
		// w indices can already be in flight when cancel lands.
		if n := ran.Load(); n > 10+int32(workers) {
			t.Errorf("workers=%d: %d indices ran after cancellation at 10", workers, n)
		}
	}
}

func TestForEachCtxCollectAllDefaultUnchanged(t *testing.T) {
	// Every index runs even when some fail.
	var ran atomic.Int32
	err := ForEachCtx(context.Background(), Config{Workers: 4}, 50,
		func(_ context.Context, i int) error {
			ran.Add(1)
			if i%10 == 0 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
	if ran.Load() != 50 {
		t.Fatalf("only %d/50 indices ran in collect-all mode", ran.Load())
	}
	for _, i := range []int{0, 10, 20, 30, 40} {
		if !strings.Contains(err.Error(), fmt.Sprintf("fail %d", i)) {
			t.Errorf("error missing index %d: %v", i, err)
		}
	}
}
