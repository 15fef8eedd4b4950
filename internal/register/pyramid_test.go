package register

import (
	"context"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/img"
	"repro/internal/sem"
)

// pyrOptions is the default pyramid configuration the tests exercise: a
// symmetric window large enough to give three usable levels on the
// 128x96 test images.
func pyrOptions() Options {
	o := Options{MaxShift: 8, MaxShiftY: 8, Bins: 32, Margin: 1}
	o.Pyramid = 3
	return o
}

func TestAlignPyramidRecoversKnownShift(t *testing.T) {
	base := aperiodic(128, 96, 3)
	for _, want := range []Shift{{0, 0}, {2, 0}, {0, -3}, {-4, 2}, {7, 7}, {-8, -8}} {
		moved := base.Translate(want.DX, want.DY)
		got, mi, err := AlignCtx(context.Background(), base, moved, pyrOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Neg() {
			t.Errorf("shift %v: pyramid recovered %v, want %v (MI %v)", want, got, want.Neg(), mi)
		}
	}
}

func TestAlignPyramidIdentityOnFlatSurface(t *testing.T) {
	flat := img.New(128, 96)
	s, _, err := AlignCtx(context.Background(), flat, flat.Clone(), pyrOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != (Shift{}) {
		t.Errorf("flat surface must tie-break to identity, got %v", s)
	}
}

// The MI the pyramid reports for its selected shift must be the
// exhaustive search's MI for that same shift bit for bit: the final
// refinement level runs at full resolution on the identical overlap
// window.
func TestAlignPyramidMIMatchesExhaustiveAtShift(t *testing.T) {
	base := aperiodic(128, 96, 17)
	moved := base.Translate(5, -4)
	o := pyrOptions()
	s, mi, err := AlignCtx(context.Background(), base, moved, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := searchCands(context.Background(), base, moved, o, o.MaxShift, o.shiftY(), []Shift{s})
	if err != nil {
		t.Fatal(err)
	}
	if mi != want[0] {
		t.Errorf("pyramid MI %v != exhaustive MI %v at shift %v", mi, want[0], s)
	}
}

// Pyramid levels clamp to what the image supports instead of erroring:
// on an image too small to halve even once, Pyramid degrades to the
// exhaustive search and must agree with it exactly.
func TestAlignPyramidClampsLevelsOnSmallImages(t *testing.T) {
	base := texture(24, 18, 7)
	moved := base.Translate(1, -1)
	o := Options{MaxShift: 2, MaxShiftY: 2, Bins: 16, Margin: 1}
	wantS, wantMI, err := AlignCtx(context.Background(), base, moved, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Pyramid = 5
	gotS, gotMI, err := AlignCtx(context.Background(), base, moved, o)
	if err != nil {
		t.Fatal(err)
	}
	if gotS != wantS || gotMI != wantMI {
		t.Errorf("clamped pyramid (%v, %v), want exhaustive (%v, %v)", gotS, gotMI, wantS, wantMI)
	}
}

func TestAlignPyramidDeterministicAcrossWorkers(t *testing.T) {
	base := aperiodic(128, 96, 23)
	moved := base.Translate(-6, 5)
	ref := pyrOptions()
	ref.Workers = 1
	wantS, wantMI, err := AlignCtx(context.Background(), base, moved, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		o := pyrOptions()
		o.Workers = workers
		gotS, gotMI, err := AlignCtx(context.Background(), base, moved, o)
		if err != nil {
			t.Fatal(err)
		}
		if gotS != wantS || gotMI != wantMI {
			t.Errorf("workers=%d: (%v, %v), want (%v, %v)", workers, gotS, gotMI, wantS, wantMI)
		}
	}
}

func TestPyramidOptionValidation(t *testing.T) {
	g := texture(40, 40, 1)
	if _, _, err := AlignCtx(context.Background(), g, g, Options{MaxShift: 2, Bins: 8, Pyramid: -1}); err == nil {
		t.Errorf("expected Pyramid validation error")
	}
}

// The accuracy contract of the coarse-to-fine search, validated on the
// full synthetic chip set: on every chip's real (noisy, drifting) SEM
// acquisition, the pyramid stack alignment must select the exact shifts
// the exhaustive search selects — and, since level 0 shares the
// exhaustive overlap window, the same pair MI values — at one worker
// and at four.
func TestPyramidMatchesExhaustiveOnChips(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip acquisition sweep")
	}
	for _, c := range chips.All() {
		t.Run(c.ID, func(t *testing.T) {
			region, err := chipgen.Generate(chipgen.DefaultConfig(c))
			if err != nil {
				t.Fatal(err)
			}
			vol, err := chipgen.Voxelize(region.Cell, region.Cell.Bounds(), 8)
			if err != nil {
				t.Fatal(err)
			}
			so := sem.DefaultOptions()
			so.Detector = c.Detector
			so.DwellUS = 12
			so.DriftSigmaPx = 0.5
			acq, err := sem.AcquireStackCtx(context.Background(), vol, so)
			if err != nil {
				t.Fatal(err)
			}
			exh := DefaultOptions()
			exh.Workers = 1
			_, want, err := AlignStackCtx(context.Background(), acq.Slices, exh)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				pyr := DefaultOptions()
				pyr.Pyramid = 3
				pyr.Workers = workers
				_, got, err := AlignStackCtx(context.Background(), acq.Slices, pyr)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Shifts {
					if got.Shifts[i] != want.Shifts[i] {
						t.Fatalf("workers=%d slice %d: pyramid shift %v, exhaustive %v",
							workers, i, got.Shifts[i], want.Shifts[i])
					}
					if got.PairMI[i] != want.PairMI[i] {
						t.Fatalf("workers=%d slice %d: pyramid MI %v, exhaustive %v",
							workers, i, got.PairMI[i], want.PairMI[i])
					}
				}
			}
		})
	}
}
