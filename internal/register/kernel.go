package register

import (
	"math"
	"sync"

	"repro/internal/img"
)

// miKernel evaluates the mutual information between a fixed and a moving
// image at integer candidate shifts, directly on the overlap window via
// index arithmetic. It replaces the original Crop+Statistics+histogram
// path with the exact same arithmetic in the exact same order, so MI
// values are bit-identical to MutualInformation over the two crops —
// only the allocations are gone:
//
//   - the overlap window in fixed coordinates is the same for every
//     candidate, so the fixed region's intensity range and per-pixel bin
//     indices are computed once per kernel (per Align call), not per
//     candidate;
//   - the moving region's extrema reduce over per-worker cached column
//     extrema (one stripe per candidate dy), no crop copy or rescan;
//   - the moving region's bin indices live in a per-worker cache keyed
//     on the exact extrema (see miScratch.movingBins), so the binning
//     division runs only when a candidate's extrema actually change;
//   - the joint histogram is integer counts in a per-worker scratch
//     buffer (miScratch), reused across candidates.
//
// Steady-state candidate evaluation therefore performs zero heap
// allocations (pinned by TestMIKernelAllocFree).
type miKernel struct {
	fixed, moving *img.Gray
	bins          int
	// Overlap window [x0,x1)×[y0,y1) in fixed coordinates; the moving
	// window for candidate (dx,dy) is the same rectangle shifted by
	// (-dx,-dy). nx/ny are the largest |dx|/|dy| the window supports.
	x0, y0, x1, y1 int
	nx, ny         int
	// Fixed-region intensity range and per-pixel bin indices, row-major
	// over the window.
	fixedBins []int32
	n         float64 // pixel count of the window
}

// miScratch is one worker's reusable evaluation state: the joint
// histogram, the marginal accumulators, and the moving-image bin cache.
// Everything an eval reads is either fully reinitialized (joint, pa,
// pb) or revalidated against the candidate's exact extrema
// (movingBins), so sharing a scratch across candidates (but never
// across concurrent workers) cannot perturb results.
type miScratch struct {
	joint  []int32
	pa, pb []float64
	// movingBins caches the whole moving image binned under (mlo, mhi).
	// Candidate windows overlap almost entirely, so their extrema — and
	// with them every bin index — are usually identical from one
	// candidate to the next; the cache turns the per-pixel binning
	// division into an array read. It is revalidated by exact float
	// comparison, so a candidate whose window extrema differ recomputes
	// and the indices always equal a fresh evaluation's bit for bit.
	movingBins []int32
	mlo, mhi   float64
	haveBins   bool
	// colMin/colMax cache per-column extrema of the moving image, one
	// W-wide stripe per candidate dy (the rows a dy selects are fixed;
	// only the column range varies with dx). A stripe is filled on the
	// first candidate at its dy (colOK) and window extrema then reduce
	// over 2·(x1-x0) cached columns instead of rescanning the whole
	// window. Min/max are order-independent, so the reduced values equal
	// img.MinMaxIn's bit for bit.
	colMin, colMax []float64
	colOK          []bool
}

// newScratch sizes a scratch for this kernel's images and window.
func (k *miKernel) newScratch() *miScratch {
	return k.resetScratch(&miScratch{})
}

// scratchPool recycles scratch across kernels: an alignment call needs
// one scratch per worker, and a stack alignment makes a call per slice
// pair, so fresh scratch would allocate per pair and per worker.
var scratchPool sync.Pool

// getScratch returns a pooled scratch reset for this kernel.
func (k *miKernel) getScratch() *miScratch {
	if s, ok := scratchPool.Get().(*miScratch); ok {
		return k.resetScratch(s)
	}
	return k.newScratch()
}

// resetScratch sizes s for this kernel, reusing its buffers where they
// are large enough, and invalidates both caches: a reset scratch
// evaluates exactly like a fresh one. joint, pa and pb are zeroed by
// every eval; colMin/colMax and movingBins are rebuilt on first use.
func (k *miKernel) resetScratch(s *miScratch) *miScratch {
	w := k.moving.W
	s.joint = resized(s.joint, k.bins*k.bins)
	s.pa = resized(s.pa, k.bins)
	s.pb = resized(s.pb, k.bins)
	s.movingBins = resized(s.movingBins, len(k.moving.Pix))
	s.colMin = resized(s.colMin, (2*k.ny+1)*w)
	s.colMax = resized(s.colMax, (2*k.ny+1)*w)
	s.colOK = resized(s.colOK, 2*k.ny+1)
	clear(s.colOK)
	s.haveBins = false
	return s
}

// resized returns buf resliced to n elements, reallocating only when its
// capacity is too small.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// extrema returns the moving window's min/max for candidate (dx, dy)
// from the column cache, filling the dy stripe on first use.
func (s *miScratch) extrema(k *miKernel, dx, dy int) (float64, float64) {
	w := k.moving.W
	stripe := dy + k.ny
	cmin := s.colMin[stripe*w : (stripe+1)*w]
	cmax := s.colMax[stripe*w : (stripe+1)*w]
	if !s.colOK[stripe] {
		s.colOK[stripe] = true
		copy(cmin, k.moving.Pix[(k.y0-dy)*w:(k.y0-dy+1)*w])
		copy(cmax, cmin)
		for y := k.y0 - dy + 1; y < k.y1-dy; y++ {
			row := k.moving.Pix[y*w : (y+1)*w]
			for x, v := range row {
				if v < cmin[x] {
					cmin[x] = v
				}
				if v > cmax[x] {
					cmax[x] = v
				}
			}
		}
	}
	lo, hi := cmin[k.x0-dx], cmax[k.x0-dx]
	for x := k.x0 - dx + 1; x < k.x1-dx; x++ {
		if cmin[x] < lo {
			lo = cmin[x]
		}
		if cmax[x] > hi {
			hi = cmax[x]
		}
	}
	return lo, hi
}

// ensureMovingBins refreshes the bin cache for extrema (mlo, mhi). The
// binning expression is the same manual img.BinIndex inline as the
// joint-histogram loop used before the cache, evaluated over the full
// image: window pixels get the exact reference index, and out-of-window
// pixels are never read by a candidate whose extrema differ.
func (s *miScratch) ensureMovingBins(m *img.Gray, mlo, mhi float64, bins int) {
	if s.haveBins && s.mlo == mlo && s.mhi == mhi {
		return
	}
	s.haveBins, s.mlo, s.mhi = true, mlo, mhi
	degenerate := mhi <= mlo
	var scale float64
	if !degenerate {
		scale = float64(bins)
	}
	for i, v := range m.Pix {
		kb := 0
		if !degenerate {
			kb = int(scale * (v - mlo) / (mhi - mlo))
			if kb < 0 {
				kb = 0
			} else if kb >= bins {
				kb = bins - 1
			}
		}
		s.movingBins[i] = int32(kb)
	}
}

// newMIKernel builds the kernel for candidates within [-nx,nx]×[-ny,ny].
// The caller has validated the geometry: the images are equal-size and
// large enough that the window [nx+margin, W-nx-margin) is at least 4
// pixels wide (and likewise in Y), which also guarantees every candidate
// shift keeps the moving window in bounds.
func newMIKernel(fixed, moving *img.Gray, nx, ny, margin, bins int) *miKernel {
	mx, my := nx+margin, ny+margin
	k := &miKernel{
		fixed: fixed, moving: moving, bins: bins,
		x0: mx, y0: my, x1: fixed.W - mx, y1: fixed.H - my,
		nx: nx, ny: ny,
	}
	k.n = float64((k.x1 - k.x0) * (k.y1 - k.y0))
	lo, hi := fixed.MinMaxIn(k.x0, k.y0, k.x1, k.y1)
	k.fixedBins = make([]int32, (k.x1-k.x0)*(k.y1-k.y0))
	fi := 0
	for y := k.y0; y < k.y1; y++ {
		row := fixed.Pix[y*fixed.W+k.x0 : y*fixed.W+k.x1]
		for _, v := range row {
			k.fixedBins[fi] = int32(img.BinIndex(v, lo, hi, bins))
			fi++
		}
	}
	return k
}

// eval computes MI at candidate shift (dx, dy) using s as scratch. The
// result is bit-identical to MutualInformation over the fixed and
// (shifted) moving crops: extrema, bin indices, histogram counts and the
// marginal/MI accumulation orders all match the reference loop for loop.
func (k *miKernel) eval(dx, dy int, s *miScratch) float64 {
	bins := k.bins
	mlo, mhi := s.extrema(k, dx, dy)
	s.ensureMovingBins(k.moving, mlo, mhi, bins)
	for i := range s.joint {
		s.joint[i] = 0
	}
	// Joint histogram over the overlap: fixed bins from the per-kernel
	// cache, moving bins from the per-scratch cache — two array reads and
	// an increment per pixel, no arithmetic on intensities at all.
	w := k.moving.W
	fi := 0
	for y := k.y0; y < k.y1; y++ {
		mrow := s.movingBins[(y-dy)*w+k.x0-dx : (y-dy)*w+k.x1-dx]
		for ri, mb := range mrow {
			s.joint[int(k.fixedBins[fi+ri])*bins+int(mb)]++
		}
		fi += len(mrow)
	}
	// Marginals, then MI, in the reference accumulation order: pa[i]
	// sums over ascending j, pb[j] over ascending i, and the MI terms add
	// in the same row-major histogram order.
	for i := 0; i < bins; i++ {
		s.pa[i] = 0
		s.pb[i] = 0
	}
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			p := float64(s.joint[i*bins+j]) / k.n
			s.pa[i] += p
			s.pb[j] += p
		}
	}
	var mi float64
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			p := float64(s.joint[i*bins+j]) / k.n
			if p > 0 && s.pa[i] > 0 && s.pb[j] > 0 {
				mi += p * math.Log(p/(s.pa[i]*s.pb[j]))
			}
		}
	}
	return mi
}
