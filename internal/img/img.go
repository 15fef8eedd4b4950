// Package img provides the grayscale floating-point image type used by the
// SEM simulator and the post-processing pipeline (denoising, registration,
// volume reslicing). Pixel values are float64 in an arbitrary intensity
// scale; SEM images use [0,1] by convention.
package img

import (
	"errors"
	"fmt"
	"math"
)

// Gray is a W×H grayscale image with float64 pixels stored row-major.
type Gray struct {
	W, H int
	Pix  []float64
}

// New returns a zeroed W×H image. It panics on non-positive dimensions,
// since every caller constructs images from validated geometry.
func New(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float64, w*h)}
}

// Validate reports whether the image is structurally sound: positive
// dimensions and a pixel buffer of exactly W*H entries. A zero-value
// Gray (or one with a truncated buffer) fails, letting pipeline stages
// reject it with an error up front instead of panicking on first access.
func (g *Gray) Validate() error {
	if g == nil {
		return fmt.Errorf("img: nil image")
	}
	if g.W <= 0 || g.H <= 0 {
		return fmt.Errorf("img: invalid dimensions %dx%d", g.W, g.H)
	}
	if len(g.Pix) != g.W*g.H {
		return fmt.Errorf("img: pixel buffer holds %d values, want %d for %dx%d",
			len(g.Pix), g.W*g.H, g.W, g.H)
	}
	return nil
}

// At returns the pixel at (x, y). Out-of-bounds access panics via the
// slice bounds check; use AtClamp for edge-extended access.
func (g *Gray) At(x, y int) float64 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y).
func (g *Gray) Set(x, y int, v float64) { g.Pix[y*g.W+x] = v }

// AtClamp returns the pixel at (x, y), clamping coordinates to the image
// bounds (edge extension), the standard boundary rule for filtering.
func (g *Gray) AtClamp(x, y int) float64 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	out := New(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v float64) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Crop returns the sub-image [x0,x1)×[y0,y1) as a new image.
func (g *Gray) Crop(x0, y0, x1, y1 int) (*Gray, error) {
	if x0 < 0 || y0 < 0 || x1 > g.W || y1 > g.H || x0 >= x1 || y0 >= y1 {
		return nil, fmt.Errorf("img: crop [%d,%d)x[%d,%d) out of %dx%d bounds",
			x0, x1, y0, y1, g.W, g.H)
	}
	out := New(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		copy(out.Pix[(y-y0)*out.W:(y-y0+1)*out.W], g.Pix[y*g.W+x0:y*g.W+x1])
	}
	return out, nil
}

// Stats describes the intensity distribution of an image.
type Stats struct {
	Min, Max, Mean, Std float64
}

// Statistics computes min/max/mean/standard deviation over all pixels.
func (g *Gray) Statistics() Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sum2 float64
	for _, v := range g.Pix {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
		sum2 += v * v
	}
	n := float64(len(g.Pix))
	s.Mean = sum / n
	variance := sum2/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)
	return s
}

// MinMaxIn returns the intensity extrema over the subregion
// [x0,x1)×[y0,y1), exactly the Min/Max that Crop(x0,y0,x1,y1) followed
// by Statistics would report, without materializing the crop. The
// registration kernel calls it once per candidate shift, so it must not
// allocate. Bounds are the caller's contract (as with At); an empty or
// out-of-range window panics via the slice bounds check.
func (g *Gray) MinMaxIn(x0, y0, x1, y1 int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for y := y0; y < y1; y++ {
		row := g.Pix[y*g.W+x0 : y*g.W+x1]
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// BinIndex maps an intensity to one of bins equal-width histogram bins
// over [lo, hi], clamping out-of-range values into the first/last bin; a
// degenerate range (hi <= lo) maps everything to bin 0. This is the
// binning rule mutual information uses — kept here so the allocation-free
// registration kernel and the reference implementation share one
// definition and stay bit-identical.
func BinIndex(v, lo, hi float64, bins int) int {
	if hi <= lo {
		return 0
	}
	k := int(float64(bins) * (v - lo) / (hi - lo))
	if k < 0 {
		k = 0
	} else if k >= bins {
		k = bins - 1
	}
	return k
}

// Normalize linearly rescales the image so that its min maps to 0 and its
// max maps to 1. A constant image becomes all zeros.
func (g *Gray) Normalize() {
	s := g.Statistics()
	span := s.Max - s.Min
	if span == 0 {
		g.Fill(0)
		return
	}
	for i, v := range g.Pix {
		g.Pix[i] = (v - s.Min) / span
	}
}

// Clamp limits every pixel to [lo, hi].
func (g *Gray) Clamp(lo, hi float64) {
	for i, v := range g.Pix {
		if v < lo {
			g.Pix[i] = lo
		} else if v > hi {
			g.Pix[i] = hi
		}
	}
}

// Add accumulates o into g pixel-wise. Images must have equal dimensions.
func (g *Gray) Add(o *Gray) error {
	if g.W != o.W || g.H != o.H {
		return errDims(g, o)
	}
	for i := range g.Pix {
		g.Pix[i] += o.Pix[i]
	}
	return nil
}

func errDims(a, b *Gray) error {
	return fmt.Errorf("img: dimension mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
}

// MSE returns the mean squared error between two equal-size images.
func MSE(a, b *Gray) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, errDims(a, b)
	}
	var s float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		s += d * d
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between a reference
// and a test image, assuming a peak intensity of 1.0. It returns +Inf for
// identical images.
func PSNR(ref, test *Gray) (float64, error) {
	mse, err := MSE(ref, test)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return -10 * math.Log10(mse), nil
}

// ErrDims is returned (wrapped) by operations on mismatched image sizes.
var ErrDims = errors.New("img: dimension mismatch")

// Histogram bins the image intensities into n equal-width bins over
// [lo, hi]. Values outside the range are clamped into the first/last bin.
func (g *Gray) Histogram(n int, lo, hi float64) []int {
	h := make([]int, n)
	if hi <= lo {
		hi = lo + 1
	}
	scale := float64(n) / (hi - lo)
	for _, v := range g.Pix {
		b := int((v - lo) * scale)
		if b < 0 {
			b = 0
		} else if b >= n {
			b = n - 1
		}
		h[b]++
	}
	return h
}

// Translate returns a copy of g shifted by (dx, dy) pixels with edge
// extension: the pixel at (x,y) of the result samples g at (x-dx, y-dy).
func (g *Gray) Translate(dx, dy int) *Gray {
	out := New(g.W, g.H)
	g.TranslateInto(out, dx, dy) // cannot fail: out matches g
	return out
}

// TranslateInto is Translate writing into a caller-provided destination
// (which must match g's dimensions), so a pooled buffer can absorb the
// shifted image without a fresh allocation. Every pixel of dst is
// overwritten.
func (g *Gray) TranslateInto(dst *Gray, dx, dy int) error {
	if dst.W != g.W || dst.H != g.H || len(dst.Pix) != dst.W*dst.H {
		return fmt.Errorf("img: translate dst %dx%d does not match source %dx%d",
			dst.W, dst.H, g.W, g.H)
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			dst.Set(x, y, g.AtClamp(x-dx, y-dy))
		}
	}
	return nil
}

// BilinearAt samples the image at real coordinates (x, y) with bilinear
// interpolation and edge clamping.
func (g *Gray) BilinearAt(x, y float64) float64 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	v00 := g.AtClamp(x0, y0)
	v10 := g.AtClamp(x0+1, y0)
	v01 := g.AtClamp(x0, y0+1)
	v11 := g.AtClamp(x0+1, y0+1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// TranslateSubpixel returns g shifted by real-valued (dx, dy) using
// bilinear interpolation, for sub-pixel drift injection and correction.
func (g *Gray) TranslateSubpixel(dx, dy float64) *Gray {
	out := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.Set(x, y, g.BilinearAt(float64(x)-dx, float64(y)-dy))
		}
	}
	return out
}

// Downsample returns the image reduced by an integer factor using box
// averaging. The factor must be >= 1; trailing rows/columns that do not
// fill a complete box are dropped.
func (g *Gray) Downsample(factor int) *Gray {
	if factor <= 1 {
		return g.Clone()
	}
	w := g.W / factor
	h := g.H / factor
	if w == 0 || h == 0 {
		return g.Clone()
	}
	out := New(w, h)
	inv := 1.0 / float64(factor*factor)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float64
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					s += g.At(x*factor+dx, y*factor+dy)
				}
			}
			out.Set(x, y, s*inv)
		}
	}
	return out
}
