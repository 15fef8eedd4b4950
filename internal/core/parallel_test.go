package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/geom"
	"repro/internal/sem"
	"repro/internal/volume"
)

var sharedAcq struct {
	once   sync.Once
	acq    *sem.Acquisition
	window geom.Rect
	err    error
}

// testAcquisition builds (once per test run) the noisy B4 acquisition the
// determinism tests replay through both the serial and parallel
// pipelines.
func testAcquisition(t *testing.T) (*sem.Acquisition, geom.Rect) {
	t.Helper()
	sharedAcq.once.Do(func() {
		o := fastOptions()
		chip := chips.ByID("B4")
		region, err := chipgen.Generate(chipgen.DefaultConfig(chip))
		if err != nil {
			sharedAcq.err = err
			return
		}
		window := region.Cell.Bounds()
		vol, err := chipgen.Voxelize(region.Cell, window, o.VoxelNM)
		if err != nil {
			sharedAcq.err = err
			return
		}
		o.SEM.Detector = chip.Detector
		acq, err := sem.AcquireStackCtx(context.Background(), vol, o.SEM)
		if err != nil {
			sharedAcq.err = err
			return
		}
		sharedAcq.acq, sharedAcq.window = acq, window
	})
	if sharedAcq.err != nil {
		t.Fatal(sharedAcq.err)
	}
	return sharedAcq.acq, sharedAcq.window
}

// The concurrency layer must not change a single byte of the output:
// for every denoiser, a saturated worker pool reproduces the Workers=1
// plan and residual exactly.
func TestReconstructParallelMatchesSerial(t *testing.T) {
	acq, window := testAcquisition(t)
	for _, den := range []string{"chambolle", "split-bregman", "none"} {
		t.Run(den, func(t *testing.T) {
			o := fastOptions()
			o.Denoiser = den
			o.Workers = 1
			wantPlan, wantInfo, err := ReconstructCtx(context.Background(), acq, window, o)
			if err != nil {
				t.Fatal(err)
			}
			o.Workers = 6
			gotPlan, gotInfo, err := ReconstructCtx(context.Background(), acq, window, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotInfo, wantInfo) {
				t.Errorf("recon info %+v != serial %+v", gotInfo, wantInfo)
			}
			if !reflect.DeepEqual(gotPlan, wantPlan) {
				t.Errorf("parallel plan differs from serial plan")
			}
		})
	}
}

func TestPlanarViewsParallelMatchesSerial(t *testing.T) {
	acq, _ := testAcquisition(t)
	o := fastOptions()
	o.Workers = 1
	want, err := PlanarViewsCtx(context.Background(), acq, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 5
	got, err := PlanarViewsCtx(context.Background(), acq, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("view count %d != %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("missing view %s", name)
		}
		if g.W != w.W || g.H != w.H {
			t.Fatalf("%s: dims %dx%d != %dx%d", name, g.W, g.H, w.W, w.H)
		}
		for i := range w.Pix {
			if g.Pix[i] != w.Pix[i] {
				t.Fatalf("%s: pixel %d differs", name, i)
			}
		}
	}
}

// PlanFromVolumeCtx assembles per-layer results in layout order, so the
// plan (rectangle order included) is identical for any worker count.
func TestPlanFromVolumeParallelMatchesSerial(t *testing.T) {
	acq, window := testAcquisition(t)
	o := fastOptions()
	o.Denoiser = "none"
	o.Workers = 1
	pre, err := preprocessCtx(context.Background(), acq, o)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := volume.FromStack(pre.slices)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanFromVolumeCtx(context.Background(), vol, window, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 7
	got, err := PlanFromVolumeCtx(context.Background(), vol, window, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel PlanFromVolumeCtx differs from serial")
	}
}
