package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/par"
	"repro/internal/sem"
	"repro/internal/volume"
)

// TestStreamMatchesBarrier is the identity contract: the streaming
// reconstruction reproduces the whole-stack reference (reference_test.go)
// byte for byte — plan, rectangle order, gate report, alignment
// residual — for every worker count, unpooled at one worker and pooled
// at more, on clean and fault-injected stacks alike.
func TestStreamMatchesBarrier(t *testing.T) {
	acq, window := testAcquisition(t)
	faulted := faultedAcquisition(t, acq)
	for _, tc := range []struct {
		name string
		acq  *sem.Acquisition
	}{
		{"clean", acq},
		{"faulted", faulted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := fastOptions()
			o.Workers = 1
			wantPlan, wantInfo, _, err := referenceReconstruct(context.Background(), tc.acq, window, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 4} {
				so := fastOptions()
				so.Workers = workers
				if workers > 1 {
					so.Pool = img.NewPool()
				}
				gotPlan, gotInfo, err := ReconstructCtx(context.Background(), tc.acq, window, so)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(gotInfo, wantInfo) {
					t.Errorf("workers=%d: info %+v != reference %+v", workers, gotInfo, wantInfo)
				}
				if !reflect.DeepEqual(gotPlan, wantPlan) {
					t.Errorf("workers=%d: plan differs from reference", workers)
				}
				if so.Pool != nil {
					if live := so.Pool.Stats().Live; live != 0 {
						t.Errorf("workers=%d: %d pool buffers leaked", workers, live)
					}
				}
			}
		})
	}
}

// faultedAcquisition clones the shared acquisition and corrupts it with
// the default fault plan, so the identity tests also cover the repair
// and bridged-detector paths.
func faultedAcquisition(t *testing.T, acq *sem.Acquisition) *sem.Acquisition {
	t.Helper()
	c := &sem.Acquisition{Options: acq.Options, SliceZ: acq.SliceZ, TrueDrift: acq.TrueDrift}
	c.Slices = make([]*img.Gray, len(acq.Slices))
	for i, g := range acq.Slices {
		c.Slices[i] = g.Clone()
	}
	plan := fault.DefaultPlan()
	if _, err := fault.Inject(c, plan); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunStreamMatchesBarrierRun pins the full producer-mode run — lazy
// plane rasterization, faults applied per slice as they stream past,
// and the netex checkpoint when a store is attached — against the
// reference run that voxelizes, acquires and injects the whole stack:
// identical results (planar views included) and identical deterministic
// counters. The clean run streams at several worker counts; the
// faulted run, whose engine TestStreamMatchesBarrier already pins at
// every worker count, streams once at four workers with a store
// attached.
func TestRunStreamMatchesBarrierRun(t *testing.T) {
	chip := chips.ByID("B4")
	for _, tc := range []struct {
		name    string
		faulted bool
	}{
		{"clean", false},
		{"faulted", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func() Options {
				o := fastOptions()
				if tc.faulted {
					p := fault.DefaultPlan()
					o.Faults = &p
				}
				return o
			}
			o := opts()
			o.Workers = 2
			o.Obs = fullObserver()
			base, err := referenceRun(context.Background(), chip, o)
			if err != nil {
				t.Fatal(err)
			}
			workerCounts := []int{1, 3, 4}
			if tc.faulted {
				workerCounts = []int{4}
			}
			for _, workers := range workerCounts {
				so := opts()
				so.Workers = workers
				so.Pool = img.NewPool()
				so.Obs = fullObserver()
				if tc.faulted {
					store, err := ckpt.Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					so.Ckpt, so.Resume = store, true
				}
				got, err := RunCtx(context.Background(), chip, so)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(stripTelemetry(got), stripTelemetry(base)) {
					t.Errorf("workers=%d: streaming run differs from reference run", workers)
				}
				counters := got.Telemetry.Counters
				for name := range counters {
					if strings.HasPrefix(name, "ckpt.") {
						delete(counters, name)
					}
				}
				if !reflect.DeepEqual(counters, base.Telemetry.Counters) {
					t.Errorf("workers=%d: counters diverge:\nstream:    %v\nreference: %v",
						workers, counters, base.Telemetry.Counters)
				}
				if live := so.Pool.Stats().Live; live != 0 {
					t.Errorf("workers=%d: %d pool buffers leaked", workers, live)
				}
			}
		})
	}
}

// TestRunOnDieMatchesReference pins the die flow, which streams the
// blindly cropped material volume, against the reference run on the
// same crop.
func TestRunOnDieMatchesReference(t *testing.T) {
	chip := chips.ByID("B4")
	o := fastOptions()
	p := fault.DefaultPlan()
	o.Faults = &p
	o.Workers = 3
	got, err := RunOnDieCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	die, err := chipgen.GenerateDie(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := chipgen.Voxelize(die.Cell, die.Cell.Bounds(), o.VoxelNM)
	if err != nil {
		t.Fatal(err)
	}
	o.SEM.Detector = chip.Detector
	roi, _, err := sem.FindROI(vol, o.SEM, 8)
	if err != nil {
		t.Fatal(err)
	}
	cropped, err := vol.CropX(roi.X0, roi.X1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRunOn(context.Background(), chip, die.Truth, cropped, cropped.BoundsNM, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTelemetry(got.Pipeline), stripTelemetry(want)) {
		t.Errorf("die run differs from the reference run on the same crop")
	}
}

// syntheticStack builds a deterministic n-slice acquisition with smooth
// structure plus hash noise (so the quality gate's shot-noise and
// constant-row detectors stay quiet) at the pipeline's native slice
// height. It stands in for a deep milling campaign without the
// acquisition cost.
func syntheticStack(n, w int) *sem.Acquisition {
	h := chipgen.StackDepth
	semOpts := sem.DefaultOptions()
	semOpts.DwellUS = 12
	acq := &sem.Acquisition{Options: semOpts}
	for z := 0; z < n; z++ {
		acq.Slices = append(acq.Slices, syntheticSlice(z, w, h))
	}
	return acq
}

// syntheticSlice is slice z of syntheticStack at an arbitrary w x h.
func syntheticSlice(z, w, h int) *img.Gray {
	g := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5 + 0.25*math.Sin(float64(x)*0.35+float64(z)*0.011) +
				0.15*math.Cos(float64(y)*0.23-float64(z)*0.007)
			hash := float64((x*73856093^y*19349663^z*83492791)%1024)/1024.0 - 0.5
			g.Set(x, y, v+0.08*hash)
		}
	}
	g.Clamp(0, sem.ClampMax)
	return g
}

// deepOptions keeps the 384-slice runs affordable: shallow search
// window, few denoise iterations.
func deepOptions() Options {
	o := fastOptions()
	o.Denoise.Iterations = 6
	o.Register.MaxShift = 2
	return o
}

// TestStreamDeepStackBoundedMemory is the perf contract on a 384-slice
// stack: the streaming path must (a) reproduce the whole-stack reference
// byte for byte at several worker counts, (b) hold only a window-bounded
// number of image buffers live at once — independent of stack depth —
// and (c) allocate less than half of what the reference allocates.
func TestStreamDeepStackBoundedMemory(t *testing.T) {
	const depth = 384
	acq := syntheticStack(depth, 48)
	window := geom.R(0, 0, int64(48*8), int64(depth*8))

	o := deepOptions()
	o.Workers = 1
	barrierAllocs := measureAllocs(t, func() {
		wantPlan, wantInfo, _, err := referenceReconstruct(context.Background(), acq, window, o)
		if err != nil {
			t.Fatal(err)
		}
		deepWant.plan, deepWant.info = wantPlan, wantInfo
	})

	for _, workers := range []int{1, 4} {
		so := deepOptions()
		so.Workers = workers
		so.Pool = img.NewPool()
		var gotPlan interface{}
		var gotInfo ReconInfo
		streamAllocs := measureAllocs(t, func() {
			p, info, err := ReconstructCtx(context.Background(), acq, window, so)
			if err != nil {
				t.Fatal(err)
			}
			gotPlan, gotInfo = p, info
		})
		if !reflect.DeepEqual(gotInfo, deepWant.info) {
			t.Errorf("workers=%d: info %+v != reference %+v", workers, gotInfo, deepWant.info)
		}
		if !reflect.DeepEqual(gotPlan, deepWant.plan) {
			t.Errorf("workers=%d: deep-stack plan differs from reference", workers)
		}
		st := so.Pool.Stats()
		if st.Live != 0 {
			t.Errorf("workers=%d: %d pool buffers leaked", workers, st.Live)
		}
		// The live-buffer high-water mark is the pipeline's working
		// set: denoised slices in flight (bounded by the credit window)
		// and the fold's references — never anything proportional to
		// the 384-slice depth.
		bound := int64(2*(2*workers+2) + workers + 4)
		if st.PeakLive > bound {
			t.Errorf("workers=%d: pool peak %d live buffers exceeds window bound %d", workers, st.PeakLive, bound)
		}
		if st.Hits == 0 {
			t.Errorf("workers=%d: pool never reused a buffer over %d slices", workers, depth)
		}
		// Allocation-volume gate, measured not asserted from theory:
		// the reference materializes the denoised stack, the aligned
		// stack, the volume copy and per-slice denoiser scratch; the
		// streaming path replaces all four with the pooled window.
		if streamAllocs > barrierAllocs/2 {
			t.Errorf("workers=%d: streaming allocated %d MB, reference %d MB — want less than half",
				workers, streamAllocs>>20, barrierAllocs>>20)
		}
	}
}

var deepWant struct {
	plan interface{}
	info ReconInfo
}

// measureAllocs returns the heap bytes allocated while fn ran.
func measureAllocs(t *testing.T, fn func()) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamCancellationReleasesPool cancels a deep streaming run
// mid-flight and verifies the teardown: a context error surfaces and
// every pooled buffer is back (no use-after-release panics, no leaks).
func TestStreamCancellationReleasesPool(t *testing.T) {
	acq := syntheticStack(384, 48)
	window := geom.R(0, 0, 48*8, 384*8)
	o := deepOptions()
	o.Workers = 4
	o.Pool = img.NewPool()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := ReconstructCtx(ctx, acq, window, o)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if live := o.Pool.Stats().Live; live != 0 {
		t.Errorf("%d pool buffers leaked after cancellation", live)
	}
}

// TestStreamPanicReleasesPool panics inside the engine's own goroutines
// — the quality gate on the feeder, a denoise worker — and verifies the
// panic is confined: the run fails with a *par.PanicError (the feeder's
// carries index -1, a worker's the slice it was denoising) and every
// pooled buffer comes back, at one worker and at several.
func TestStreamPanicReleasesPool(t *testing.T) {
	defer failpoint.Disable()
	const n, w, at = 64, 48, 20
	acq := syntheticStack(n, w)
	window := geom.R(0, 0, w*8, n*8)
	for _, c := range []struct {
		site      string
		wantIndex int
	}{{"core.gate.push", -1}, {"core.denoise", at}} {
		for _, workers := range []int{1, 3} {
			if err := failpoint.Enable(fmt.Sprintf("%s=panic(poisoned):after=%d", c.site, at), 1); err != nil {
				t.Fatal(err)
			}
			o := deepOptions()
			o.Workers = workers
			o.Pool = img.NewPool()
			_, _, err := ReconstructCtx(context.Background(), acq, window, o)
			var pe *par.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s workers=%d: err = %v, want a *par.PanicError", c.site, workers, err)
			}
			if pe.Value != "poisoned" {
				t.Errorf("%s workers=%d: panic value %v, want poisoned", c.site, workers, pe.Value)
			}
			// Which slice a worker is on at the site's 21st evaluation
			// is fixed only when one worker takes them in order.
			if workers == 1 && pe.Index != c.wantIndex {
				t.Errorf("%s workers=%d: PanicError.Index = %d, want %d", c.site, workers, pe.Index, c.wantIndex)
			}
			if live := o.Pool.Stats().Live; live != 0 {
				t.Errorf("%s workers=%d: %d pool buffers leaked after panic", c.site, workers, live)
			}
		}
	}
}

// TestStreamErrorReleasesPool aborts the pipeline from inside (a
// mid-stack slice with mismatched dimensions, blank or content-bearing)
// and verifies the same teardown invariant on the failure path, with
// alignment both on and off: the quality gate rejects the slice with a
// *volume.SliceSizeError before any detector compares it with its
// neighbors, and every pooled buffer comes back.
func TestStreamErrorReleasesPool(t *testing.T) {
	const n, w, at = 64, 48, 40
	h := chipgen.StackDepth
	cases := []struct {
		name string
		bad  *img.Gray
	}{
		{"blank-narrower", img.New(w-1, h)},
		{"narrower", syntheticSlice(at, w-1, h)},
		{"wider", syntheticSlice(at, w+1, h)},
		{"taller", syntheticSlice(at, w, h+1)},
	}
	for _, c := range cases {
		for _, align := range []bool{true, false} {
			acq := syntheticStack(n, w)
			acq.Slices[at] = c.bad
			window := geom.R(0, 0, w*8, n*8)
			o := deepOptions()
			if !align {
				o.Register.MaxShift = 0
			}
			o.Workers = 3
			o.Pool = img.NewPool()
			_, _, err := ReconstructCtx(context.Background(), acq, window, o)
			var sse *volume.SliceSizeError
			if !errors.As(err, &sse) {
				t.Fatalf("%s align=%v: err = %v, want a *volume.SliceSizeError", c.name, align, err)
			}
			want := volume.SliceSizeError{Index: at, W: c.bad.W, H: c.bad.H, WantW: w, WantH: h}
			if *sse != want {
				t.Errorf("%s align=%v: SliceSizeError = %+v, want %+v", c.name, align, *sse, want)
			}
			if live := o.Pool.Stats().Live; live != 0 {
				t.Errorf("%s align=%v: %d pool buffers leaked after error", c.name, align, live)
			}
		}
	}
}
