package img

import (
	"math"
	"sort"
)

// GaussianKernel returns a normalized 1-D Gaussian kernel with the given
// standard deviation, truncated at 3 sigma (radius = ceil(3*sigma)).
func GaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianBlur returns g convolved with a separable Gaussian of the given
// standard deviation, using edge extension at the boundaries. Where the
// whole stencil lies inside the image the taps read Pix directly;
// AtClamp serves only the border. Every output pixel sums the same taps
// in the same order either way.
func GaussianBlur(g *Gray, sigma float64) *Gray {
	k := GaussianKernel(sigma)
	r := len(k) / 2
	w, h := g.W, g.H
	// Horizontal pass.
	tmp := New(w, h)
	for y := 0; y < h; y++ {
		row := g.Pix[y*w : (y+1)*w]
		dst := tmp.Pix[y*w : (y+1)*w]
		for x := range dst {
			var s float64
			if x >= r && x+r < w {
				taps := row[x-r : x+r+1]
				for i, kv := range k {
					s += kv * taps[i]
				}
			} else {
				for i := -r; i <= r; i++ {
					s += k[i+r] * g.AtClamp(x+i, y)
				}
			}
			dst[x] = s
		}
	}
	// Vertical pass.
	out := New(w, h)
	rows := make([][]float64, len(k))
	for y := 0; y < h; y++ {
		dst := out.Pix[y*w : (y+1)*w]
		if y < r || y+r >= h {
			for x := range dst {
				var s float64
				for i := -r; i <= r; i++ {
					s += k[i+r] * tmp.AtClamp(x, y+i)
				}
				dst[x] = s
			}
			continue
		}
		for i := range rows {
			rows[i] = tmp.Pix[(y-r+i)*w : (y-r+i+1)*w]
		}
		for x := range dst {
			var s float64
			for i, kv := range k {
				s += kv * rows[i][x]
			}
			dst[x] = s
		}
	}
	return out
}

// MedianFilter returns g filtered with a square median window of the
// given radius (window side = 2*radius+1), with edge extension. Median
// filtering is the classical salt-and-pepper noise remover used before
// slice alignment.
func MedianFilter(g *Gray, radius int) *Gray {
	if radius <= 0 {
		return g.Clone()
	}
	out := New(g.W, g.H)
	side := 2*radius + 1
	window := make([]float64, 0, side*side)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			window = window[:0]
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					window = append(window, g.AtClamp(x+dx, y+dy))
				}
			}
			sortWindow(window)
			out.Set(x, y, window[len(window)/2])
		}
	}
	return out
}

// sortWindow sorts a median window in place. Windows of up to 12 values
// (radius 1 is 9) take an insertion sort with the comparison
// sort.Float64s uses (NaNs first): that is exactly the algorithm
// sort.Float64s runs on so short a slice, so the median it picks is the
// same value bit for bit, signed zeros and NaNs included, without the
// generic sort's dispatch. Larger windows keep sort.Float64s.
func sortWindow(v []float64) {
	if len(v) > 12 {
		sort.Float64s(v)
		return
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && lessNaNFirst(v[j], v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func lessNaNFirst(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// SobelMagnitude returns the gradient magnitude of g computed with the
// 3x3 Sobel operator. Used to locate feature-line direction when finding
// the region of interest.
func SobelMagnitude(g *Gray) *Gray {
	out := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			gx := -g.AtClamp(x-1, y-1) + g.AtClamp(x+1, y-1) +
				-2*g.AtClamp(x-1, y) + 2*g.AtClamp(x+1, y) +
				-g.AtClamp(x-1, y+1) + g.AtClamp(x+1, y+1)
			gy := -g.AtClamp(x-1, y-1) - 2*g.AtClamp(x, y-1) - g.AtClamp(x+1, y-1) +
				g.AtClamp(x-1, y+1) + 2*g.AtClamp(x, y+1) + g.AtClamp(x+1, y+1)
			out.Set(x, y, math.Hypot(gx, gy))
		}
	}
	return out
}

// BoxBlur returns g convolved with a (2r+1)² box filter, edge extended.
func BoxBlur(g *Gray, r int) *Gray {
	if r <= 0 {
		return g.Clone()
	}
	out := New(g.W, g.H)
	inv := 1.0 / float64((2*r+1)*(2*r+1))
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					s += g.AtClamp(x+dx, y+dy)
				}
			}
			out.Set(x, y, s*inv)
		}
	}
	return out
}
