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
// and in the same column loop the dual step updates p in row y-1, whose
// gradient needs the new u in rows y-1 and y only. At column x the dual
// step of row y-1 reads u in row y-1 at x and x+1 (final since the
// previous row) and u in row y at x (just computed), and it writes p in
// row y-1 at x after row y's u at x has read it; nothing later in the
// row reads it. So every value is the same expression over the
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
	// pyAt is the py row at y as the divergence of row y sees it: the
	// zero row for the bottom row. (A one-row slice's py never leaves
	// +0, since its only dual step adds tl*0, so its one row is a zero
	// row either way.)
	pyAt := func(y int) []float64 {
		if y == h-1 {
			return zero
		}
		return py[y*w : (y+1)*w]
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
			r := y * w
			if y == 0 {
				change = primalRow(u[:w], f.Pix[:w], px[:w], pyAt(0), zero, invLambda, change, track)
			} else {
				change = sweepRow(u[r:r+w], f.Pix[r:r+w], px[r:r+w], pyAt(y),
					u[r-w:r], px[r-w:r], py[r-w:r], invLambda, tl, change, track, haveAVX2)
			}
			if track && !(change/float64(n) < o.Tol) {
				track = false
			}
		}
		r := (h - 1) * w
		dualRow(px[r:r+w], py[r:r+w], u[r:r+w], tl)
		if track { // the whole sum passed the test
			break
		}
	}
	pyu := zero
	for y := 0; y < h; y++ {
		r := y * w
		primalRow(dst.Pix[r:r+w], f.Pix[r:r+w], px[r:r+w], pyAt(y), pyu, invLambda, 0, false)
		pyu = py[r : r+w]
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
// math.Abs clears the sign of a -0 difference, which leaves change
// unchanged: change starts at +0, and +0 + -0 == +0 + +0 == +0.
func primalRow(out, f, pxr, pyc, pyu []float64, invLambda, change float64, track bool) float64 {
	w := len(out)
	f, pxr, pyc, pyu = f[:w], pxr[:w], pyc[:w], pyu[:w]
	set := func(x int, d float64) {
		nu := f[x] + (d+(pyc[x]-pyu[x]))*invLambda
		if track {
			change += math.Abs(nu - out[x])
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

// sweepRow is primalRow for a row below the top fused with the dual
// step of the row above it: one column loop computes u at x into out,
// then takes the dual step of the row above at x. That step moves
// (pxa, pyu) by tl times the forward-difference gradient of u there,
// from the above row's new u (ua) and out, and reprojects onto
// |p| <= 1; the gradient's x component is zero at the right border,
// and steps by tl*0. pyu[x] is read by the primal before the dual step
// writes it. With vec set (haveAVX2 in production) the interior columns
// run four at a time in sweepVec, bit-identical to the Go loop, which
// takes the (w-2) mod 4 columns left over.
func sweepRow(out, f, pxr, pyc, ua, pxa, pyu []float64, invLambda, tl, change float64, track, vec bool) float64 {
	w := len(out)
	f, pxr, pyc, ua, pxa, pyu = f[:w], pxr[:w], pyc[:w], ua[:w], pxa[:w], pyu[:w]
	if w == 1 {
		change = primalRow(out, f, pxr, pyc, pyu, invLambda, change, track)
		pxa[0], pyu[0] = project(pxa[0]+tl*0, pyu[0]+tl*(out[0]-ua[0]))
		return change
	}
	// Left border.
	nu := f[0] + ((0+pxr[0])+(pyc[0]-pyu[0]))*invLambda
	if track {
		change += math.Abs(nu - out[0])
	}
	out[0] = nu
	v := ua[0]
	pxa[0], pyu[0] = project(pxa[0]+tl*(ua[1]-v), pyu[0]+tl*(nu-v))
	// Interior, in a tracked and an untracked copy.
	x0 := 1
	if n := (w - 2) / 4; vec && n > 0 {
		change = sweepVec(out, f, pxr, pyc, ua, pxa, pyu, n, invLambda, tl, change, track)
		x0 += 4 * n
	}
	if track {
		for x := x0; x < w-1; x++ {
			nu := f[x] + ((0+(pxr[x]-pxr[x-1]))+(pyc[x]-pyu[x]))*invLambda
			change += math.Abs(nu - out[x])
			out[x] = nu
			v := ua[x]
			pxa[x], pyu[x] = project(pxa[x]+tl*(ua[x+1]-v), pyu[x]+tl*(nu-v))
		}
	} else {
		for x := x0; x < w-1; x++ {
			nu := f[x] + ((0+(pxr[x]-pxr[x-1]))+(pyc[x]-pyu[x]))*invLambda
			out[x] = nu
			v := ua[x]
			pxa[x], pyu[x] = project(pxa[x]+tl*(ua[x+1]-v), pyu[x]+tl*(nu-v))
		}
	}
	// Right border.
	x := w - 1
	nu = f[x] + ((0-pxr[x-1])+(pyc[x]-pyu[x]))*invLambda
	if track {
		change += math.Abs(nu - out[x])
	}
	out[x] = nu
	pxa[x], pyu[x] = project(pxa[x]+tl*0, pyu[x]+tl*(nu-ua[x]))
	return change
}

// dualRow takes the dual step in the bottom row, ur being its new u:
// there the gradient has no y component.
func dualRow(pxr, pyr, ur []float64, tl float64) {
	w := len(ur)
	pxr, pyr = pxr[:w], pyr[:w]
	z := tl * 0
	for x := 0; x < w-1; x++ {
		pxr[x], pyr[x] = project(pxr[x]+tl*(ur[x+1]-ur[x]), pyr[x]+z)
	}
	pxr[w-1], pyr[w-1] = project(pxr[w-1]+z, pyr[w-1]+z)
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
