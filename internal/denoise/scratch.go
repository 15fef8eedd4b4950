package denoise

import (
	"context"
	"fmt"
	"math"

	"repro/internal/img"
)

// Scratch holds the per-slice float64 work planes a TV denoising run
// needs (three for Chambolle, five for split-Bregman), so a streaming
// pipeline worker can denoise slice after slice without allocating
// fresh planes each time. A Scratch is reusable across slices of any
// size — planes grow on demand and are re-zeroed before every run, so
// results are bit-identical to the allocate-fresh path. The zero value
// is ready to use. A Scratch must not be shared between concurrent
// denoising runs; give each worker its own.
type Scratch struct {
	bufs [5][]float64
}

// plane returns work plane i with exactly n zeroed entries, reusing the
// previous backing array when it is large enough. Zeroing reproduces
// make's semantics, which the iteration math depends on (the dual and
// Bregman variables start at zero).
func (s *Scratch) plane(i, n int) []float64 {
	if cap(s.bufs[i]) < n {
		s.bufs[i] = make([]float64, n)
		return s.bufs[i]
	}
	b := s.bufs[i][:n]
	for j := range b {
		b[j] = 0
	}
	s.bufs[i] = b
	return b
}

// checkInto validates an Into-variant call: options first (matching the
// Ctx variants' error order), then the destination geometry.
func checkInto(dst, f *img.Gray, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("denoise: input: %w", err)
	}
	if dst.W != f.W || dst.H != f.H || len(dst.Pix) != dst.W*dst.H {
		return fmt.Errorf("denoise: dst %dx%d does not match input %dx%d", dst.W, dst.H, f.W, f.H)
	}
	return nil
}

// ChambolleInto denoises f into dst (which must match f's dimensions)
// using caller-owned scratch planes instead of fresh allocations. dst's
// prior contents are fully overwritten. A nil Scratch allocates locally
// (equivalent to ChambolleCtx).
//
// Each iteration is one row-lagged pass: row y of u = f + div(p)/lambda
// is computed from the dual field p as the previous iteration left it,
// then the dual step updates p in row y-1, whose gradient needs the new
// u in rows y-1 and y only. Row y of u reads p in rows y and y-1 before
// either is updated, so every value is the same expression over the
// same operands as in three separate sweeps (divergence, u, dual
// update), and the output is bit-identical to them (pinned by
// testdata/tv_golden.json).
func ChambolleInto(ctx context.Context, dst, f *img.Gray, o Options, s *Scratch) error {
	if err := checkInto(dst, f, o); err != nil {
		return err
	}
	if s == nil {
		s = &Scratch{}
	}
	w, h := f.W, f.H
	n := w * h
	// Dual variables p = (px, py). px carries one extra all-zero row:
	// the missing py neighbour row above the top row and below the
	// bottom row of the divergence.
	px := s.plane(0, n+w)
	zero := px[n:]
	px = px[:n]
	py := s.plane(1, n)
	u := s.plane(2, n)
	const tau = 0.125
	tl := tau * o.Lambda
	invLambda := 1.0 / o.Lambda

	// primal writes row y of f + div(p)/lambda into out, adding each
	// |new - out| to change when track is set.
	primal := func(out []float64, y int, change float64, track bool) float64 {
		r := y * w
		pyc, pyu := py[r:r+w], zero
		if y > 0 {
			pyu = py[r-w : r]
			if y == h-1 {
				pyc = zero
			}
		}
		return primalRow(out, f.Pix[r:r+w], px[r:r+w], pyc, pyu, invLambda, change, track)
	}
	// dual updates p in row y from the new u.
	dual := func(y int) {
		r := y * w
		var below []float64
		if y < h-1 {
			below = u[r+w : r+2*w]
		}
		dualRow(px[r:r+w], py[r:r+w], u[r:r+w], below, tl)
	}

	iters := 0
	for it := 0; it < o.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		iters++
		// change only feeds the early-stopping test; a sum of
		// non-negative terms never decreases, so once a partial sum
		// fails the test the total fails it too and summing stops.
		track := o.Tol > 0 && it > 0
		var change float64
		for y := 0; y < h; y++ {
			change = primal(u[y*w:(y+1)*w], y, change, track)
			if y > 0 {
				dual(y - 1)
			}
			if track && !(change/float64(n) < o.Tol) {
				track = false
			}
		}
		dual(h - 1)
		if track { // the whole sum passed the test
			break
		}
	}
	for y := 0; y < h; y++ {
		primal(dst.Pix[y*w:(y+1)*w], y, 0, false)
	}
	o.Obs.Count("denoise.slices", 1)
	o.Obs.Count("denoise.iterations", int64(iters))
	return nil
}

// primalRow computes one row of u = f + div(p)/lambda into out from the
// row's f and px, and the py rows at (pyc) and above (pyu) it, and
// returns change plus, when track is set, the sum of |new - out| over
// the row in ascending pixel order. The divergence is the adjoint of
// the forward-difference gradient: its x term is px[x] at the left
// border, -px[x-1] at the right and px[x]-px[x-1] between. The y term
// is pyc[x]-pyu[x], where the caller passes a zero row for pyu at the
// top border and for pyc at the bottom. Both reproduce the border forms
// +py and -py exactly: v - 0 == v for every v, and the x term, which
// starts from +0, is never -0, so adding 0-v equals subtracting v.
func primalRow(out, f, pxr, pyc, pyu []float64, invLambda, change float64, track bool) float64 {
	w := len(out)
	f, pxr, pyc, pyu = f[:w], pxr[:w], pyc[:w], pyu[:w]
	set := func(x int, d float64) {
		nu := f[x] + (d+(pyc[x]-pyu[x]))*invLambda
		if track {
			change += abs(nu - out[x])
		}
		out[x] = nu
	}
	set(0, 0+pxr[0])
	for x := 1; x < w-1; x++ {
		set(x, 0+(pxr[x]-pxr[x-1]))
	}
	if w > 1 {
		set(w-1, 0-pxr[w-2])
	}
	return change
}

// dualRow takes one gradient-ascent step on the dual field in one row
// and reprojects it onto |p| <= 1. ur is the row's new u and below the
// row beneath it, nil for the bottom row; the gradient is a forward
// difference, zero at the right and bottom borders.
func dualRow(pxr, pyr, ur, below []float64, tl float64) {
	w := len(ur)
	pxr, pyr = pxr[:w], pyr[:w]
	z := tl * 0 // the step along a zero gradient component
	if below == nil {
		for x := 0; x < w-1; x++ {
			pxr[x], pyr[x] = project(pxr[x]+tl*(ur[x+1]-ur[x]), pyr[x]+z)
		}
		pxr[w-1], pyr[w-1] = project(pxr[w-1]+z, pyr[w-1]+z)
		return
	}
	below = below[:w]
	for x := 0; x < w-1; x++ {
		v := ur[x]
		pxr[x], pyr[x] = project(pxr[x]+tl*(ur[x+1]-v), pyr[x]+tl*(below[x]-v))
	}
	pxr[w-1], pyr[w-1] = project(pxr[w-1]+z, pyr[w-1]+tl*(below[w-1]-ur[w-1]))
}

// project divides (a, b) by max(1, |(a, b)|). When the squared norm is
// below 1 its rounded square root is at most 1, so the divisor is
// exactly 1 and the division is skipped.
func project(a, b float64) (float64, float64) {
	s2 := a*a + b*b
	if s2 < 1 {
		return a, b
	}
	r := math.Sqrt(s2)
	return a / r, b / r
}

// SplitBregmanInto denoises f into dst with caller-owned scratch, the
// split-Bregman counterpart of ChambolleInto: bit-identical to
// SplitBregmanCtx, dst fully overwritten, nil Scratch allocates
// locally.
func SplitBregmanInto(ctx context.Context, dst, f *img.Gray, o Options, s *Scratch) error {
	if err := checkInto(dst, f, o); err != nil {
		return err
	}
	if s == nil {
		s = &Scratch{}
	}
	w, h := f.W, f.H
	n := w * h
	u := s.plane(0, n)
	copy(u, f.Pix)
	dx := s.plane(1, n)
	dy := s.plane(2, n)
	bx := s.plane(3, n)
	by := s.plane(4, n)
	// mu is the fidelity weight, gamma the splitting weight. gamma is
	// tied to mu per the usual heuristic gamma = 2*mu.
	mu := o.Lambda
	gamma := 2 * o.Lambda
	iters := 0

	for it := 0; it < o.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		iters++
		// Gauss-Seidel sweep for u; see SplitBregmanCtx for the border
		// handling and the operand-order contract. change is summed only
		// while the tolerance can still fire, as in ChambolleInto.
		track := o.Tol > 0 && it > 0
		var change float64
		denom := mu + 4*gamma
		for y := 0; y < h; y++ {
			rowOff := y * w
			upOff := rowOff - w
			if y == 0 {
				upOff = rowOff
			}
			downOff := rowOff + w
			if y == h-1 {
				downOff = rowOff
			}
			for x := 0; x < w; x++ {
				i := rowOff + x
				xl := i - 1
				if x == 0 {
					xl = i
				}
				xr := i + 1
				if x == w-1 {
					xr = i
				}
				iu := upOff + x
				id := downOff + x
				sumN := u[xl] + u[xr] + u[iu] + u[id]
				dTerm := dx[xl] - dx[i] + dy[iu] - dy[i]
				bTerm := bx[i] - bx[xl] + by[i] - by[iu]
				nu := (mu*f.Pix[i] + gamma*(sumN+dTerm+bTerm)) / denom
				if track {
					change += abs(nu - u[i])
				}
				u[i] = nu
			}
			if track && !(change/float64(n) < o.Tol) {
				track = false
			}
		}
		// Shrinkage of d and Bregman update of b.
		thr := 1.0 / gamma
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				gx, gy := 0.0, 0.0
				if x < w-1 {
					gx = u[y*w+x+1] - u[i]
				}
				if y < h-1 {
					gy = u[(y+1)*w+x] - u[i]
				}
				dx[i] = shrink(gx+bx[i], thr)
				dy[i] = shrink(gy+by[i], thr)
				bx[i] += gx - dx[i]
				by[i] += gy - dy[i]
			}
		}
		if track {
			break
		}
	}
	copy(dst.Pix, u)
	o.Obs.Count("denoise.slices", 1)
	o.Obs.Count("denoise.iterations", int64(iters))
	return nil
}
