// Package sem simulates the FIB/SEM volumetric acquisition of Section IV:
// the focused ion beam repeatedly slices the region of interest and a
// scanning electron microscope images each exposed cross section with
// either the secondary-electron (SE) or backscatter-electron (BSE)
// detector. The simulator reproduces the artifact classes the real
// post-processing pipeline must correct: shot noise governed by dwell
// time, beam blur, per-slice intensity variation (charging), and
// cumulative stage drift.
package sem

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chipgen"
	"repro/internal/img"
)

// Options configures an acquisition.
type Options struct {
	// Detector is "SE" or "BSE"; the two have different material
	// contrast (Section IV: BSE tracks atomic number, SE conductivity).
	Detector string
	// DwellUS is the per-spot dwell time in microseconds; noise falls
	// with sqrt(dwell) but acquisition cost rises linearly.
	DwellUS float64
	// BlurSigmaPx is the beam point-spread sigma in pixels.
	BlurSigmaPx float64
	// DriftSigmaPx is the per-slice stage drift standard deviation in
	// pixels (a cumulative random walk across the stack).
	DriftSigmaPx float64
	// DriftTrendPx adds a systematic per-slice lateral drift: the
	// planar-shear signature of a sample not milled perpendicular to
	// the feature lines, which the post-processing must correct (the
	// paper's final rotation step).
	DriftTrendPx float64
	// ChargeSigma is the per-slice brightness wobble amplitude.
	ChargeSigma float64
	// SliceStep is the FIB slice thickness in voxels (>= 1).
	SliceStep int
	// Seed drives the noise generator; acquisitions are reproducible.
	Seed int64
}

// ClampMax is the detector saturation ceiling: every acquired pixel is
// clamped to [0, ClampMax]. Nominal material intensities stay below 1,
// so values at the ceiling only appear under extreme charging — the
// signature the fault injector and the slice-quality gate key on.
const ClampMax = 1.5

// DefaultOptions returns a realistic mid-quality acquisition: BSE, 3 us
// dwell, one-voxel slices.
func DefaultOptions() Options {
	return Options{
		Detector: "BSE", DwellUS: 3, BlurSigmaPx: 0.7,
		DriftSigmaPx: 0.8, ChargeSigma: 0.02, SliceStep: 1, Seed: 1,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Detector != "SE" && o.Detector != "BSE" {
		return fmt.Errorf("sem: unknown detector %q", o.Detector)
	}
	if o.DwellUS <= 0 {
		return fmt.Errorf("sem: non-positive dwell time %v", o.DwellUS)
	}
	if o.SliceStep < 1 {
		return fmt.Errorf("sem: slice step %d < 1", o.SliceStep)
	}
	if o.BlurSigmaPx < 0 || o.DriftSigmaPx < 0 || o.ChargeSigma < 0 {
		return fmt.Errorf("sem: negative artifact parameter")
	}
	if o.DriftTrendPx < 0 {
		return fmt.Errorf("sem: negative drift trend")
	}
	return nil
}

// Intensity returns the nominal detector response for a material in
// [0, 1]. BSE contrast separates the metal layers strongly (atomic
// number); SE compresses the metal levels but emphasizes the conductive
// silicon features.
func Intensity(detector string, m chipgen.Material) float64 {
	switch detector {
	case "BSE":
		switch m {
		case chipgen.MatOxide:
			return 0.08
		case chipgen.MatCapacitor:
			return 0.70
		case chipgen.MatM2:
			return 0.92
		case chipgen.MatVia:
			return 0.80
		case chipgen.MatM1:
			return 0.88
		case chipgen.MatContact:
			return 0.62
		case chipgen.MatGate:
			return 0.45
		case chipgen.MatActive:
			return 0.30
		}
	case "SE":
		switch m {
		case chipgen.MatOxide:
			return 0.12
		case chipgen.MatCapacitor:
			return 0.55
		case chipgen.MatM2:
			return 0.75
		case chipgen.MatVia:
			return 0.68
		case chipgen.MatM1:
			return 0.72
		case chipgen.MatContact:
			return 0.60
		case chipgen.MatGate:
			return 0.50
		case chipgen.MatActive:
			return 0.42
		}
	}
	return 0
}

// NoiseSigma converts dwell time to the additive noise level: 3 us dwell
// yields sigma 0.05, scaling with 1/sqrt(dwell). Every real slice carries
// at least this much intensity variation, which makes it the physical
// floor the slice-quality gate tests against: a slice with *less*
// variation than the shot noise cannot have been acquired.
func NoiseSigma(dwellUS float64) float64 {
	return 0.05 * math.Sqrt(3/dwellUS)
}

// MaterialPlanes is the ground truth a FIB/SEM acquisition mills
// through, seen one slicing plane at a time. A fully materialized
// *chipgen.MatVolume satisfies it, as does the lazy
// *chipgen.PlaneSource — which is what lets the streaming acquisition
// image arbitrarily deep stacks without holding the whole volume.
type MaterialPlanes interface {
	// Dims returns (nx lateral, ny depth, nz slicing positions).
	Dims() (nx, ny, nz int)
	// PlaneZ returns the material plane at slicing position z, indexed
	// plane[y*nx+x]. The returned slice may be a buffer reused by the
	// next PlaneZ call.
	PlaneZ(z int) ([]chipgen.Material, error)
}

// renderPlane converts one material plane into the ideal SEM image; the
// single shared loop keeps RenderCrossSection and the streaming path
// pixel-identical by construction.
func renderPlane(plane []chipgen.Material, nx, ny int, detector string) *img.Gray {
	g := img.New(nx, ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			g.Set(x, y, Intensity(detector, plane[y*nx+x]))
		}
	}
	return g
}

// RenderCrossSection produces the ideal (artifact-free) SEM image of the
// material cross-section at slicing position z.
func RenderCrossSection(v *chipgen.MatVolume, z int, detector string) (*img.Gray, error) {
	if z < 0 || z >= v.NZ {
		return nil, fmt.Errorf("sem: slice z=%d out of [0,%d)", z, v.NZ)
	}
	plane, err := v.PlaneZ(z)
	if err != nil {
		return nil, err
	}
	return renderPlane(plane, v.NX, v.NY, detector), nil
}

// Acquisition is the output of a FIB/SEM run.
type Acquisition struct {
	// Slices are the acquired cross-section images, one per FIB cut.
	Slices []*img.Gray
	// SliceZ records each slice's voxel position along the milling
	// axis.
	SliceZ []int
	// TrueDrift is the cumulative (dx, dy) drift injected into each
	// slice, in pixels — ground truth for scoring alignment.
	TrueDrift [][2]float64
	// Options echoes the acquisition parameters.
	Options Options
}

// AcquireStackCtx mills through the volume along Z, imaging every
// SliceStep voxels with the configured artifacts. Cancellation is
// checked between slices: acquisition is the pipeline's longest stage
// (the paper's real campaigns run >24 h), so a cancelled run must stop
// at the next FIB cut rather than mill the remaining volume.
func AcquireStackCtx(ctx context.Context, v *chipgen.MatVolume, o Options) (*Acquisition, error) {
	acq := &Acquisition{Options: o}
	err := StreamStackCtx(ctx, v, o, func(i, z int, g *img.Gray, drift [2]float64) error {
		acq.Slices = append(acq.Slices, g)
		acq.SliceZ = append(acq.SliceZ, z)
		acq.TrueDrift = append(acq.TrueDrift, drift)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acq, nil
}

// StreamStackCtx runs the FIB/SEM acquisition loop but hands each
// acquired slice to emit (with its index, voxel position, and cumulative
// true drift) instead of accumulating a stack — the bounded-memory
// producer for the streaming reconstruction. The artifact model,
// operation order and RNG consumption are exactly AcquireStackCtx's
// (which delegates here), so the emitted slices are bit-identical to a
// materialized acquisition. A non-nil error from emit aborts the mill
// and is returned as-is.
func StreamStackCtx(ctx context.Context, src MaterialPlanes, o Options, emit func(i, z int, g *img.Gray, drift [2]float64) error) error {
	if err := o.Validate(); err != nil {
		return err
	}
	nx, ny, nz := src.Dims()
	rng := rand.New(rand.NewSource(o.Seed))
	sigma := NoiseSigma(o.DwellUS)
	var dx, dy float64
	n := 0
	for z := 0; z < nz; z += o.SliceStep {
		if err := ctx.Err(); err != nil {
			return err
		}
		plane, err := src.PlaneZ(z)
		if err != nil {
			return err
		}
		g := renderPlane(plane, nx, ny, o.Detector)
		if o.BlurSigmaPx > 0 {
			g = img.GaussianBlur(g, o.BlurSigmaPx)
		}
		// Cumulative stage drift (skip the first slice: it defines the
		// reference frame). Drift is mostly lateral; the vertical
		// component is a quarter of the lateral one.
		if n > 0 && o.DriftSigmaPx > 0 {
			dx += rng.NormFloat64() * o.DriftSigmaPx
			dy += rng.NormFloat64() * o.DriftSigmaPx / 4
		}
		if n > 0 {
			dx += o.DriftTrendPx
		}
		if dx != 0 || dy != 0 {
			g = g.TranslateSubpixel(dx, dy)
		}
		// Charging: per-slice brightness offset plus a mild horizontal
		// gradient.
		offset := rng.NormFloat64() * o.ChargeSigma
		tilt := rng.NormFloat64() * o.ChargeSigma / float64(g.W)
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				val := g.At(x, y) + offset + tilt*float64(x) + rng.NormFloat64()*sigma
				g.Set(x, y, val)
			}
		}
		g.Clamp(0, ClampMax)
		if err := emit(n, z, g, [2]float64{dx, dy}); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("sem: volume produced no slices")
	}
	return nil
}

// SliceCount returns how many slices milling nz slicing positions at the
// given step produces — the stack depth a streaming consumer must expect
// before the first slice arrives.
func SliceCount(nz, step int) int {
	if nz <= 0 || step < 1 {
		return 0
	}
	return (nz + step - 1) / step
}

// CostHours estimates the acquisition wall-clock cost in hours: dwell
// time per pixel times pixel count across all slices (the paper reports
// >24 h for the 100 um² scans).
func (a *Acquisition) CostHours() float64 {
	if len(a.Slices) == 0 {
		return 0
	}
	return CostHoursFor(a.Slices[0].W, a.Slices[0].H, len(a.Slices), a.Options.DwellUS)
}

// CostHoursFor is the acquisition cost model on raw dimensions, for
// streaming runs that never hold an Acquisition: dwell time per pixel
// across all slices plus fixed per-slice FIB milling overhead (around
// 90 s), identical to Acquisition.CostHours.
func CostHoursFor(nx, ny, n int, dwellUS float64) float64 {
	px := float64(nx*ny) * float64(n)
	return (px*dwellUS*1e-6 + float64(n)*90) / 3600
}

// PlanDwell returns the dwell time (µs) needed to reach a target additive
// noise level, inverting the shot-noise model: sigma = 0.05*sqrt(3/dwell).
// SEM time is shared and expensive (Section IV), so acquisitions are
// planned against a noise budget rather than maximal quality.
func PlanDwell(targetSigma float64) (float64, error) {
	if targetSigma <= 0 {
		return 0, fmt.Errorf("sem: non-positive noise target %v", targetSigma)
	}
	r := 0.05 / targetSigma
	return 3 * r * r, nil
}

// PlanCostHours estimates the acquisition cost of imaging a region of the
// given voxel dimensions at the dwell that reaches targetSigma.
func PlanCostHours(nx, ny, nSlices int, targetSigma float64) (dwellUS, hours float64, err error) {
	if nx <= 0 || ny <= 0 || nSlices <= 0 {
		return 0, 0, fmt.Errorf("sem: non-positive scan dimensions")
	}
	dwellUS, err = PlanDwell(targetSigma)
	if err != nil {
		return 0, 0, err
	}
	px := float64(nx*ny) * float64(nSlices)
	hours = (px*dwellUS*1e-6 + float64(nSlices)*90) / 3600
	return dwellUS, hours, nil
}
