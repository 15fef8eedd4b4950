package denoise

import (
	"context"
	"math"
	"testing"

	"repro/internal/img"
)

// This file pins the index-arithmetic rewrites of TotalVariation and the
// SplitBregmanCtx Gauss-Seidel sweep to the straightforward originals:
// the reference implementations below are the pre-optimization code,
// kept verbatim, and the tests demand bit-for-bit equal results so the
// micro-optimizations can never drift numerically.

// refTotalVariation is the original g.At-based accumulation.
func refTotalVariation(g *img.Gray) float64 {
	var tv float64
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			v := g.At(x, y)
			if x < g.W-1 {
				tv += abs(g.At(x+1, y) - v)
			}
			if y < g.H-1 {
				tv += abs(g.At(x, y+1) - v)
			}
		}
	}
	return tv
}

// refSplitBregman is the original SplitBregmanCtx with the clamping at()
// closure in the Gauss-Seidel sweep.
func refSplitBregman(f *img.Gray, o Options) *img.Gray {
	w, h := f.W, f.H
	n := w * h
	u := make([]float64, n)
	copy(u, f.Pix)
	dx := make([]float64, n)
	dy := make([]float64, n)
	bx := make([]float64, n)
	by := make([]float64, n)
	mu := o.Lambda
	gamma := 2 * o.Lambda

	at := func(arr []float64, x, y int) float64 {
		if x < 0 {
			x = 0
		} else if x >= w {
			x = w - 1
		}
		if y < 0 {
			y = 0
		} else if y >= h {
			y = h - 1
		}
		return arr[y*w+x]
	}

	for it := 0; it < o.Iterations; it++ {
		var change float64
		denom := mu + 4*gamma
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				sumN := at(u, x-1, y) + at(u, x+1, y) + at(u, x, y-1) + at(u, x, y+1)
				dTerm := at(dx, x-1, y) - dx[i] + at(dy, x, y-1) - dy[i]
				bTerm := bx[i] - at(bx, x-1, y) + by[i] - at(by, x, y-1)
				nu := (mu*f.Pix[i] + gamma*(sumN+dTerm+bTerm)) / denom
				change += abs(nu - u[i])
				u[i] = nu
			}
		}
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
		if o.Tol > 0 && it > 0 && change/float64(n) < o.Tol {
			break
		}
	}
	out := img.New(w, h)
	copy(out.Pix, u)
	return out
}

func TestTotalVariationMatchesReference(t *testing.T) {
	cases := []*img.Gray{
		addNoise(stepImage(33, 21), 0.2, 11),
		addNoise(stepImage(8, 8), 0.5, 13),
		stepImage(1, 7),  // single column: vertical diffs only
		stepImage(7, 1),  // single row: horizontal diffs only
		img.New(1, 1),    // single pixel: zero TV
		stepImage(64, 2), // two rows exercises both row branches
	}
	for _, g := range cases {
		got := TotalVariation(g)
		want := refTotalVariation(g)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%dx%d: TotalVariation %v != reference %v", g.W, g.H, got, want)
		}
	}
}

func TestSplitBregmanMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		f    *img.Gray
		o    Options
	}{
		{"default", addNoise(stepImage(32, 24), 0.15, 3), DefaultOptions()},
		{"early-stop", addNoise(stepImage(24, 32), 0.1, 5), Options{Lambda: 8, Iterations: 200, Tol: 1e-4}},
		{"tiny", addNoise(stepImage(3, 3), 0.3, 7), Options{Lambda: 4, Iterations: 25}},
		{"one-col", addNoise(stepImage(1, 16), 0.3, 9), Options{Lambda: 4, Iterations: 25}},
		{"one-row", addNoise(stepImage(16, 1), 0.3, 15), Options{Lambda: 4, Iterations: 25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := SplitBregmanCtx(context.Background(), tc.f, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			want := refSplitBregman(tc.f, tc.o)
			for i := range want.Pix {
				if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
					t.Fatalf("pixel %d: %v != reference %v", i, got.Pix[i], want.Pix[i])
				}
			}
		})
	}
}
