package core

import (
	"math"

	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/sem"
)

// The slice-quality gate screens every acquisition before denoising:
// per-slice outlier detection, fault classification and repair by
// interpolation from healthy neighbors. It always runs, with the fixed
// thresholds below.
//
// Real stacks vary enormously along the milling axis — slices near the
// stack edges are close to featureless oxide — so none of the detectors
// may compare a slice against a whole-stack norm. Each is grounded
// either in acquisition physics (shot-noise floor, detector ceiling,
// exact-constant rows) or in its immediate neighbors (adjacent slices
// are 4 nm apart and nearly identical), which keeps the gate silent on
// clean acquisitions: an empty RepairReport and not one pixel touched.
const (
	// gateSatLevel is the intensity at or above which a pixel counts
	// as saturated: just below the detector ceiling.
	gateSatLevel = sem.ClampMax - 0.05
	// gateSatFrac flags a slice whose saturated fraction exceeds it
	// (charging flare). A clean slice has no saturated pixels at all —
	// nominal intensities sit ~10 noise sigmas below the ceiling — so
	// the threshold only needs to clear numerical dust.
	gateSatFrac = 0.001
	// gateDropNoiseFactor flags a slice whose intensity standard
	// deviation falls below this fraction of the shot-noise floor for
	// the acquisition's dwell time (dropped slice: a frame with less
	// variation than the beam noise cannot have been acquired).
	gateDropNoiseFactor = 0.7
	// gateBurstDY / gateBurstDX flag a slice whose cumulative
	// row-profile (vertical) or column-profile (lateral) offset spikes
	// by at least this many pixels against its local median (drift
	// burst).
	gateBurstDY = 2.5
	gateBurstDX = 4
	// gateBurstProbePx bounds the per-pair profile-shift search.
	gateBurstProbePx = 16
	// gateBurstMinCorr is the correlation a nonzero profile shift must
	// reach to count as stage motion. A true stage jump is a pure
	// translation (profile correlation near 1); a structural
	// transition along the stack can also prefer a nonzero shift, but
	// only with a mediocre correlation.
	gateBurstMinCorr = 0.97
	// gateBurstVetoCorr is the (lower) correlation at which an adjacent
	// pair's estimate is trusted enough to *contradict* the other
	// pair's confident vote — blocking the burst blame from landing on
	// the healthy neighbor of an excursed slice.
	gateBurstVetoCorr = 0.9
	// gateCurtainResid / gateCurtainMinCol / gateCurtainColFrac flag a
	// slice as curtained when more than gateCurtainColFrac of its
	// columns fall below gateCurtainResid times the neighboring slices'
	// column profile. Profiles are normalized by each slice's mean
	// intensity first, so the per-slice charging offset cancels instead
	// of masquerading as column damage in dim regions. Normalized
	// columns whose neighbor value is below gateCurtainMinCol carry no
	// signal and are skipped.
	gateCurtainResid   = 0.35
	gateCurtainMinCol  = 0.25
	gateCurtainColFrac = 0.15
	// gateMIFloor is the catch-all: a slice whose mutual information
	// with every healthy neighbor falls below gateMIFloor times the
	// *local* median pair MI (a window of gateMIWindow pairs each way)
	// is an anomaly even if no specific model matches. The natural MI
	// along a stack is bimodal — plateaus inside repeating structure,
	// valleys at transitions, roughly 4x apart — so the floor must sit
	// well below the valley/plateau ratio.
	gateMIFloor = 0.2
	// gateMIWindow is the half-width, in pairs, of the local MI window.
	gateMIWindow = 8
	// gateMIBins is the MI histogram resolution.
	gateMIBins = 32
)

// SliceRepair records one flagged slice: what the gate believes went
// wrong and what it did about it.
type SliceRepair struct {
	// Index is the slice position in the stack.
	Index int
	// Kind is the classified fault model (fault.KindUnknown when only
	// the MI catch-all fired).
	Kind fault.Kind
	// Metric is the value of the detector that fired.
	Metric float64
	// Action describes the repair: "interp(j,k)", "copy(j)" or "none"
	// when no healthy neighbor existed.
	Action string
}

// RepairReport is the slice-quality gate's outcome for one acquisition.
type RepairReport struct {
	// Checked is the number of slices screened.
	Checked int
	// Repairs lists the flagged slices in ascending index order.
	Repairs []SliceRepair
}

// sliceFeatures are the per-slice statistics every detector reads.
type sliceFeatures struct {
	satFrac   float64
	constRows int
	std       float64
	rowMean   []float64
	// colNorm is the column-mean profile divided by the slice's mean
	// intensity: the per-slice charging offset cancels, so profile
	// ratios between neighbors reflect genuine column damage.
	colNorm []float64
}

// features computes the per-slice statistics in one pass over the
// pixels plus a row/column-profile pass.
func features(g *img.Gray) sliceFeatures {
	f := sliceFeatures{
		rowMean: make([]float64, g.H),
		colNorm: make([]float64, g.W),
	}
	sat := 0
	for y := 0; y < g.H; y++ {
		first := g.At(0, y)
		constRow := true
		var rowSum float64
		for x := 0; x < g.W; x++ {
			v := g.At(x, y)
			if v >= gateSatLevel {
				sat++
			}
			if v != first {
				constRow = false
			}
			rowSum += v
			f.colNorm[x] += v
		}
		if constRow && g.W > 1 {
			f.constRows++
		}
		f.rowMean[y] = rowSum / float64(g.W)
	}
	var mean float64
	for x := range f.colNorm {
		f.colNorm[x] /= float64(g.H)
		mean += f.colNorm[x]
	}
	mean /= float64(g.W)
	if mean > 1e-9 {
		for x := range f.colNorm {
			f.colNorm[x] /= mean
		}
	}
	f.satFrac = float64(sat) / float64(len(g.Pix))
	f.std = g.Statistics().Std
	return f
}

// profileShift returns the integer shift s in [-probe, probe] that
// maximizes the normalized correlation between profile a and profile b
// displaced by s (b[y] matched against a[y-s]), preferring the smaller
// magnitude on ties, along with the winning correlation. Flat profiles
// return zero.
func profileShift(a, b []float64, probe int) (int, float64) {
	n := len(a)
	if n != len(b) || n < 4 {
		return 0, 0
	}
	if probe > n/2 {
		probe = n / 2
	}
	best, bestCorr := 0, math.Inf(-1)
	for _, s := range shiftOrder(probe) {
		lo, hi := 0, n
		if s > 0 {
			lo = s
		} else {
			hi = n + s
		}
		if hi-lo < 4 {
			continue
		}
		var ma, mb float64
		for y := lo; y < hi; y++ {
			ma += a[y-s]
			mb += b[y]
		}
		cnt := float64(hi - lo)
		ma, mb = ma/cnt, mb/cnt
		var cov, va, vb float64
		for y := lo; y < hi; y++ {
			da, db := a[y-s]-ma, b[y]-mb
			cov += da * db
			va += da * da
			vb += db * db
		}
		if va == 0 || vb == 0 {
			continue
		}
		if corr := cov / math.Sqrt(va*vb); corr > bestCorr+1e-12 {
			bestCorr = corr
			best = s
		}
	}
	if math.IsInf(bestCorr, -1) {
		bestCorr = 0
	}
	return best, bestCorr
}

// shiftOrder yields 0, -1, 1, -2, 2, ... so that the smaller-magnitude
// shift wins ties deterministically.
func shiftOrder(probe int) []int {
	out := make([]int, 0, 2*probe+1)
	out = append(out, 0)
	for s := 1; s <= probe; s++ {
		out = append(out, -s, s)
	}
	return out
}

// neighborColMin returns the elementwise minimum of the normalized
// column profiles of the nearest unflagged neighbor on each side of
// slice i, so a structure legitimately ending between two slices
// (present on one side only) never counts as damage.
func neighborColMin(feats []sliceFeatures, flagged []fault.Kind, i int) []float64 {
	var profiles [][]float64
	for _, dir := range []int{-1, 1} {
		for j := i + dir; j >= 0 && j < len(feats); j += dir {
			if flagged[j] == fault.KindNone {
				profiles = append(profiles, feats[j].colNorm)
				break
			}
		}
	}
	if len(profiles) == 0 {
		return nil
	}
	out := append([]float64(nil), profiles[0]...)
	for _, p := range profiles[1:] {
		for x := range out {
			if p[x] < out[x] {
				out[x] = p[x]
			}
		}
	}
	return out
}
