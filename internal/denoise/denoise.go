// Package denoise implements the edge-preserving total-variation (TV)
// denoising algorithms the HiFi-DRAM post-processing step relies on:
// Chambolle's dual projection algorithm (Chambolle 2004) and the
// split-Bregman method for the L1-regularized ROF model (Goldstein &
// Osher 2009). Both minimize
//
//	min_u  TV(u) + lambda/2 * ||u - f||^2
//
// where f is the noisy SEM slice, preserving material edges while
// removing shot noise so that subsequent mutual-information alignment is
// stable.
package denoise

import (
	"context"
	"fmt"
	"math"

	"repro/internal/img"
	"repro/internal/obs"
)

// Options configures a TV denoising run.
type Options struct {
	// Lambda is the fidelity weight: larger values keep the result
	// closer to the input (less smoothing). It must be positive and
	// finite.
	Lambda float64
	// Iterations bounds the outer iteration count.
	Iterations int
	// Tol stops iterating early when the mean absolute update falls
	// below this threshold. It must be finite; zero (or a negative
	// value) disables early stopping.
	Tol float64
	// Obs receives the "denoise.slices" and "denoise.iterations"
	// counters (iterations actually performed, which early stopping
	// makes smaller than the bound). Nil disables instrumentation; the
	// denoised image is identical either way.
	Obs *obs.Observer
}

// DefaultOptions returns parameters that work well for SEM slices
// normalized to [0,1] with moderate shot noise.
func DefaultOptions() Options {
	return Options{Lambda: 8.0, Iterations: 60, Tol: 1e-5}
}

func (o Options) validate() error {
	if !(o.Lambda > 0) || math.IsInf(o.Lambda, 1) {
		return fmt.Errorf("denoise: Lambda must be positive and finite, got %v", o.Lambda)
	}
	if math.IsNaN(o.Tol) || math.IsInf(o.Tol, 0) {
		return fmt.Errorf("denoise: Tol must be finite, got %v", o.Tol)
	}
	if o.Iterations <= 0 {
		return fmt.Errorf("denoise: Iterations must be positive, got %d", o.Iterations)
	}
	return nil
}

// ChambolleCtx denoises f with Chambolle's dual projection algorithm
// and returns a new image. The dual step size is fixed at 1/8, the
// proven convergence bound for the 4-neighbor discrete gradient. The
// context is checked once per outer iteration (the natural preemption
// point — tens of milliseconds on pipeline-sized slices), and a
// cancelled run returns ctx.Err() instead of a half-converged image.
func ChambolleCtx(ctx context.Context, f *img.Gray, o Options) (*img.Gray, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	out := img.New(f.W, f.H)
	// The whole algorithm lives in ChambolleInto (the streaming
	// pipeline's scratch-reusing entry point); delegating keeps the two
	// paths bit-identical by construction.
	if err := ChambolleInto(ctx, out, f, o, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// SplitBregmanCtx denoises f with the split-Bregman iteration for
// anisotropic TV. Each outer iteration alternates a Gauss-Seidel solve of
// the quadratic subproblem, soft-thresholding of the auxiliary gradient
// variables (shrinkage), and a Bregman update. Cancellation is checked
// once per outer iteration like ChambolleCtx.
func SplitBregmanCtx(ctx context.Context, f *img.Gray, o Options) (*img.Gray, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	out := img.New(f.W, f.H)
	// Delegates to SplitBregmanInto for the same reason ChambolleCtx
	// delegates: one algorithm body, bit-identical on both paths. The
	// Gauss-Seidel sweep's border handling uses precomputed clamped
	// indices whose operand order matches the closure-based original
	// exactly (pinned by TestSplitBregmanMatchesReference).
	if err := SplitBregmanInto(ctx, out, f, o, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// shrink is the scalar soft-thresholding operator.
func shrink(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

// TotalVariation returns the anisotropic total variation of an image:
// the sum of absolute forward differences. The interior runs on row
// slices with the border columns/rows peeled out of the inner loop; the
// horizontal-then-vertical accumulation order per pixel matches the
// straightforward g.At version term for term, so the sum is
// bit-identical to it (pinned by TestTotalVariationMatchesReference).
func TotalVariation(g *img.Gray) float64 {
	var tv float64
	w, h := g.W, g.H
	for y := 0; y < h; y++ {
		row := g.Pix[y*w : (y+1)*w]
		if y < h-1 {
			next := g.Pix[(y+1)*w : (y+2)*w : (y+2)*w]
			for x := 0; x < w-1; x++ {
				v := row[x]
				tv += abs(row[x+1] - v)
				tv += abs(next[x] - v)
			}
			tv += abs(next[w-1] - row[w-1])
		} else {
			for x := 0; x < w-1; x++ {
				tv += abs(row[x+1] - row[x])
			}
		}
	}
	return tv
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
