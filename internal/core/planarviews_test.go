package core

import (
	"context"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/img"
	"repro/internal/sem"
)

func TestPlanarViews(t *testing.T) {
	chip := chips.ByID("B4")
	o := fastOptions()
	region, err := chipgen.Generate(chipgen.DefaultConfig(chip))
	if err != nil {
		t.Fatal(err)
	}
	window := region.Cell.Bounds()
	vol, err := chipgen.Voxelize(region.Cell, window, o.VoxelNM)
	if err != nil {
		t.Fatal(err)
	}
	o.SEM.Detector = chip.Detector
	acq, err := sem.AcquireStackCtx(context.Background(), vol, o.SEM)
	if err != nil {
		t.Fatal(err)
	}
	views, err := PlanarViewsCtx(context.Background(), acq, o)
	if err != nil {
		t.Fatal(err)
	}
	// Every layer with a depth band yields one view.
	for _, name := range []string{"M1", "M2", "gate", "active", "contact", "via1", "capacitor"} {
		v, ok := views[name]
		if !ok {
			t.Errorf("missing planar view for %s", name)
			continue
		}
		if v.W != acq.Slices[0].W || v.H != len(acq.Slices) {
			t.Errorf("%s: view dims %dx%d, want %dx%d", name, v.W, v.H,
				acq.Slices[0].W, len(acq.Slices))
		}
	}
	// The M1 view shows structure (bitlines); the capacitor band in an
	// SA-only region is near flat.
	m1 := views["M1"].Statistics()
	cap := views["capacitor"].Statistics()
	if m1.Std <= 2*cap.Std {
		t.Errorf("M1 view should carry far more structure than the empty capacitor band: %.3f vs %.3f",
			m1.Std, cap.Std)
	}
}

// PlanarViewsCtx must honour Options.Denoiser like ReconstructCtx does —
// including the "none" and "split-bregman" paths and rejecting unknown
// names — instead of silently running Chambolle.
func TestPlanarViewsDenoiserPaths(t *testing.T) {
	acq, _ := testAcquisition(t)
	for _, den := range []string{"none", "split-bregman"} {
		t.Run(den, func(t *testing.T) {
			o := fastOptions()
			o.Denoiser = den
			views, err := PlanarViewsCtx(context.Background(), acq, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"M1", "M2", "gate", "active", "contact", "via1", "capacitor"} {
				v, ok := views[name]
				if !ok {
					t.Fatalf("missing planar view for %s", name)
				}
				if v.W != acq.Slices[0].W || v.H != len(acq.Slices) {
					t.Errorf("%s: view dims %dx%d, want %dx%d", name, v.W, v.H,
						acq.Slices[0].W, len(acq.Slices))
				}
			}
		})
	}
	o := fastOptions()
	o.Denoiser = "bogus"
	if _, err := PlanarViewsCtx(context.Background(), acq, o); err == nil {
		t.Errorf("unknown denoiser must error, not fall back to chambolle")
	}
}

// tinyStack builds a hand-made acquisition of w-pixel-wide slices tall
// enough to cover every depth band.
func tinyStack(w, n int) *sem.Acquisition {
	acq := &sem.Acquisition{}
	for z := 0; z < n; z++ {
		g := img.New(w, chipgen.StackDepth)
		for i := range g.Pix {
			g.Pix[i] = float64((i+z)%7) * 0.1
		}
		acq.Slices = append(acq.Slices, g)
	}
	return acq
}

// PlanarViewsCtx must apply the same alignment guard as ReconstructCtx:
// MaxShift=0 and single-slice stacks skip the MI alignment entirely.
// 4-pixel-wide slices are too small for even a zero-width search window,
// so an unguarded AlignStackCtx call would fail here.
func TestPlanarViewsAlignmentGuard(t *testing.T) {
	o := fastOptions()
	o.Denoiser = "none"
	o.Register.MaxShift = 0
	views, err := PlanarViewsCtx(context.Background(), tinyStack(4, 3), o)
	if err != nil {
		t.Fatalf("MaxShift=0 must skip alignment: %v", err)
	}
	if v := views["M1"]; v.W != 4 || v.H != 3 {
		t.Errorf("M1 dims %dx%d, want 4x3", v.W, v.H)
	}

	o = fastOptions()
	o.Denoiser = "none" // MaxShift stays at the default 4
	views, err = PlanarViewsCtx(context.Background(), tinyStack(4, 1), o)
	if err != nil {
		t.Fatalf("single-slice stack must skip alignment: %v", err)
	}
	if v := views["gate"]; v.W != 4 || v.H != 1 {
		t.Errorf("gate dims %dx%d, want 4x1", v.W, v.H)
	}
}
