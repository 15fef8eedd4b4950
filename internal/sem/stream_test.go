package sem

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/img"
)

func testVolume(t *testing.T) *chipgen.MatVolume {
	t.Helper()
	r, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID("B4")))
	if err != nil {
		t.Fatal(err)
	}
	v, err := chipgen.Voxelize(r.Cell, r.Truth.RegionBounds, 8)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestStreamMatchesAcquire pins the producer's identity contract: the
// streamed slices — whether fed from the materialized volume or from the
// lazy plane source — are bit-identical to AcquireStackCtx's, with the
// same z positions and drift ground truth.
func TestStreamMatchesAcquire(t *testing.T) {
	v := testVolume(t)
	o := DefaultOptions()
	o.SliceStep = 2
	o.DriftTrendPx = 0.05
	want, err := AcquireStackCtx(context.Background(), v, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  MaterialPlanes
	}{
		{"volume", v},
		{"lazy", mustPlaneSource(t, v)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			err := StreamStackCtx(context.Background(), tc.src, o, func(idx, z int, g *img.Gray, drift [2]float64) error {
				if idx != i {
					t.Fatalf("emit index %d, want %d", idx, i)
				}
				if z != want.SliceZ[i] {
					t.Fatalf("slice %d at z=%d, want %d", i, z, want.SliceZ[i])
				}
				if drift != want.TrueDrift[i] {
					t.Fatalf("slice %d drift %v, want %v", i, drift, want.TrueDrift[i])
				}
				ref := want.Slices[i]
				if g.W != ref.W || g.H != ref.H {
					t.Fatalf("slice %d is %dx%d, want %dx%d", i, g.W, g.H, ref.W, ref.H)
				}
				for p := range ref.Pix {
					if g.Pix[p] != ref.Pix[p] {
						t.Fatalf("slice %d pixel %d differs: %v vs %v", i, p, g.Pix[p], ref.Pix[p])
					}
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(want.Slices) {
				t.Fatalf("streamed %d slices, want %d", i, len(want.Slices))
			}
			if got := SliceCount(v.NZ, o.SliceStep); got != len(want.Slices) {
				t.Fatalf("SliceCount = %d, want %d", got, len(want.Slices))
			}
		})
	}
}

// mustPlaneSource rebuilds the lazy source for the volume's window.
func mustPlaneSource(t *testing.T, v *chipgen.MatVolume) MaterialPlanes {
	t.Helper()
	r, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID("B4")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := chipgen.NewPlaneSource(r.Cell, v.BoundsNM, v.VoxelNM)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStreamEmitErrorAborts(t *testing.T) {
	v := testVolume(t)
	sentinel := errors.New("stop here")
	calls := 0
	err := StreamStackCtx(context.Background(), v, DefaultOptions(), func(i, z int, g *img.Gray, drift [2]float64) error {
		calls++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("emit called %d times, want 3", calls)
	}
}

func TestStreamHonorsCancellation(t *testing.T) {
	v := testVolume(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := StreamStackCtx(ctx, v, DefaultOptions(), func(i, z int, g *img.Gray, drift [2]float64) error {
		t.Fatal("emit called under cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCostHoursForMatchesMethod(t *testing.T) {
	v := testVolume(t)
	acq, err := AcquireStackCtx(context.Background(), v, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := CostHoursFor(acq.Slices[0].W, acq.Slices[0].H, len(acq.Slices), acq.Options.DwellUS)
	if got != acq.CostHours() {
		t.Fatalf("CostHoursFor = %v, CostHours = %v", got, acq.CostHours())
	}
}

func TestSliceCount(t *testing.T) {
	for _, tc := range []struct{ nz, step, want int }{
		{10, 1, 10}, {10, 2, 5}, {10, 3, 4}, {1, 1, 1}, {0, 1, 0}, {5, 0, 0},
	} {
		if got := SliceCount(tc.nz, tc.step); got != tc.want {
			t.Fatalf("SliceCount(%d,%d) = %d, want %d", tc.nz, tc.step, got, tc.want)
		}
	}
}
