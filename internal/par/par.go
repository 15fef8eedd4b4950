// Package par provides the bounded worker pool the reconstruction hot
// path fans out on. The pipeline stages it serves (per-slice denoising,
// per-layer reslicing, per-candidate-shift mutual information, per-chip
// runs) are all index-addressed with independent outputs, so the pool
// exposes exactly that shape: run fn(i) for every index, write results
// by index, and report errors in a deterministic order. Callers that
// follow this pattern produce byte-identical output regardless of the
// worker count.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Count normalizes a Workers option: any value below 1 means "use every
// core" (runtime.NumCPU()).
func Count(requested int) int {
	if requested < 1 {
		return runtime.NumCPU()
	}
	return requested
}

// WorkersFor reports how many workers a fan-out over n units actually
// runs: Count(workers) capped at n (a pool never idles goroutines on an
// empty queue). Callers that preallocate per-worker state — scratch
// buffers indexed by the worker number ForEachWorkerCtx hands out — size
// it with this so every worker finds its slot.
func WorkersFor(workers, n int) int {
	w := Count(workers)
	if w > n {
		w = n
	}
	return w
}

// SplitBudget splits a worker budget between a fan-out over tasks and
// each task's own inner pool, so nested parallelism never oversubscribes
// the machine: fan = min(tasks, Count(workers)) tasks run concurrently,
// each entitled to inner = Count(workers)/fan (never below 1) workers of
// its own. A non-positive task count returns fan 0 with the whole budget
// as inner, so callers can divide by fan only after checking they have
// work — the split itself never divides by zero.
func SplitBudget(workers, tasks int) (fan, inner int) {
	budget := Count(workers)
	if tasks <= 0 {
		return 0, budget
	}
	fan = tasks
	if fan > budget {
		fan = budget
	}
	inner = budget / fan
	if inner < 1 {
		inner = 1
	}
	return fan, inner
}

// Hooks observes a ForEachCtx fan-out without participating in it: the
// callbacks only see indices and worker numbers, never results, so a
// hooked run produces byte-identical output to an unhooked one. The
// zero value disables all hooks with no overhead beyond a nil check.
type Hooks struct {
	// Worker is invoked once per worker before it takes its first index
	// (worker in [0, Count(workers))); the serial path invokes it for
	// worker 0 on the calling goroutine. The returned task hook, if
	// non-nil, is called before each unit fn(i) runs on that worker and
	// its returned func after the unit finishes (including after a
	// recovered panic); the returned finish func, if non-nil, runs when
	// the worker has no more work.
	Worker func(worker int) (task func(i int) func(), finish func())
}

// PanicError is the indexed error ForEachCtx reports for a unit of work
// that panicked instead of returning. One poisoned index must never kill
// the whole fan-out: the panic is confined to its index and surfaces as
// an ordinary error alongside the results of every other index.
type PanicError struct {
	// Index is the work index whose fn panicked, or -1 for work that
	// has no index of its own (see Call).
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: index %d panicked: %v", e.Index, e.Value)
}

// Call runs fn on the calling goroutine and returns its error, or a
// *PanicError for index i when fn panics. It is the confinement
// ForEachWorkerCtx gives every unit, for callers that run work on
// goroutines of their own: such a goroutine reports the error instead
// of taking the process down with it.
func Call(i int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// Config bundles the fan-out knobs ForEachCtx accepts beyond the index
// range: the worker budget and the observation hooks.
type Config struct {
	// Workers bounds the pool (values below 1 mean runtime.NumCPU()).
	Workers int
	// Hooks are the per-worker observation callbacks (see Hooks). They
	// change nothing about scheduling, error aggregation or
	// determinism; they exist so an observability layer can attribute
	// wall time to workers without the pool depending on it.
	Hooks Hooks
}

// ForEachCtx runs fn(ctx, i) for every i in [0, n) on at most
// Count(cfg.Workers) goroutines. All indices run even when some fail,
// and every failure is reported: the returned error joins (errors.Join)
// the per-index errors in ascending index order, so the first line of
// the message is the same error a sequential loop would have hit first
// and errors.Is/As see each individual failure. A panic inside fn is
// recovered and converted to a *PanicError for its index rather than
// tearing down the process. With one worker (or n == 1) it degrades to
// a plain loop on the calling goroutine, so a Workers=1 configuration
// has no scheduling overhead beyond the panic guard.
//
// Workers check ctx between indices, so cancellation (a caller
// deadline, SIGINT) stops the fan-out at the next index boundary
// without waiting for the queue to drain; indices that never ran
// contribute no error. When ctx is done the returned error joins
// ctx.Err() with the per-index errors collected so far, so
// errors.Is(err, context.Canceled/DeadlineExceeded) sees the
// cancellation.
func ForEachCtx(ctx context.Context, cfg Config, n int, fn func(ctx context.Context, i int) error) error {
	return ForEachWorkerCtx(ctx, cfg, n, func(ctx context.Context, _, i int) error {
		return fn(ctx, i)
	})
}

// ForEachWorkerCtx is ForEachCtx with the worker number passed to fn:
// worker is in [0, WorkersFor(cfg.Workers, n)) and is stable for the
// lifetime of that worker's goroutine (the serial path always passes 0).
// It exists so a caller can thread per-worker scratch state — reusable
// histogram or accumulation buffers indexed by worker — through a
// fan-out without locking and without per-unit allocation. The worker
// number carries no scheduling meaning: which indices a worker drains is
// nondeterministic, so fn must not let results depend on it (scratch
// contents must be fully reinitialized per unit). Everything else —
// error aggregation, panic confinement, cancellation, determinism of
// index-addressed output — matches ForEachCtx.
func ForEachWorkerCtx(ctx context.Context, cfg Config, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	call := func(g, i int) error {
		return Call(i, func() error { return fn(ctx, g, i) })
	}
	w := WorkersFor(cfg.Workers, n)
	h := cfg.Hooks
	errs := make([]error, n)
	runWorker := func(g int, take func() (int, bool)) {
		var task func(i int) func()
		var finish func()
		if h.Worker != nil {
			task, finish = h.Worker(g)
		}
		for ctx.Err() == nil {
			i, ok := take()
			if !ok {
				break
			}
			if task != nil {
				done := task(i)
				errs[i] = call(g, i)
				if done != nil {
					done()
				}
			} else {
				errs[i] = call(g, i)
			}
		}
		if finish != nil {
			finish()
		}
	}
	if w == 1 {
		i := 0
		runWorker(0, func() (int, bool) {
			if i >= n {
				return 0, false
			}
			i++
			return i - 1, true
		})
		return finishCtx(ctx, errs)
	}
	var next atomic.Int64
	take := func() (int, bool) {
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runWorker(g, take)
		}(g)
	}
	wg.Wait()
	return finishCtx(ctx, errs)
}

// finishCtx joins the per-index errors, prepending the caller context's
// error when the fan-out was cancelled from outside so callers can
// errors.Is against it directly.
func finishCtx(ctx context.Context, errs []error) error {
	err := joinIndexed(errs)
	if cerr := ctx.Err(); cerr != nil {
		return errors.Join(cerr, err)
	}
	return err
}

// joinIndexed joins the non-nil entries in index order; nil when all
// indices succeeded.
func joinIndexed(errs []error) error {
	var nonNil []error
	for _, err := range errs {
		if err != nil {
			nonNil = append(nonNil, err)
		}
	}
	return errors.Join(nonNil...)
}
