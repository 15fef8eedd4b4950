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
//
// Every pixel's median is the middle of its window sorted by sortWindow.
// For radius 1 an interior pixel whose window holds no NaN takes a
// shortcut with the same value: each row's column triples (the pixels
// above, at and below the row) are sorted once, and the median of the
// nine is med3 of the largest low, the median mid and the smallest high
// of the window's three columns. Equal values have equal bits unless
// they are zeros, so a ±0 result falls back to the sorted window, whose
// choice between +0 and -0 depends on the order of the window's values.
func MedianFilter(g *Gray, radius int) *Gray {
	if radius <= 0 {
		return g.Clone()
	}
	out := New(g.W, g.H)
	side := 2*radius + 1
	window := make([]float64, 0, side*side)
	median := func(x, y int) float64 {
		window = window[:0]
		for dy := -radius; dy <= radius; dy++ {
			for dx := -radius; dx <= radius; dx++ {
				window = append(window, g.AtClamp(x+dx, y+dy))
			}
		}
		sortWindow(window)
		return window[len(window)/2]
	}
	w, h := g.W, g.H
	if radius != 1 || w < 3 || h < 3 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Pix[y*w+x] = median(x, y)
			}
		}
		return out
	}
	// lo, mid and hi hold each column's sorted triple in the current
	// row; nan marks a triple holding a NaN.
	lo, mid, hi := make([]float64, w), make([]float64, w), make([]float64, w)
	nan := make([]bool, w)
	for x := 0; x < w; x++ {
		out.Pix[x] = median(x, 0)
		out.Pix[(h-1)*w+x] = median(x, h-1)
	}
	for y := 1; y < h-1; y++ {
		above, row, below := g.Pix[(y-1)*w:y*w], g.Pix[y*w:(y+1)*w], g.Pix[(y+1)*w:(y+2)*w]
		for x := range lo {
			a, b, c := above[x], row[x], below[x]
			nan[x] = a != a || b != b || c != c
			lo[x], mid[x], hi[x] = sort3(a, b, c)
		}
		dst := out.Pix[y*w : (y+1)*w]
		dst[0] = median(0, y)
		for x := 1; x < w-1; x++ {
			if nan[x-1] || nan[x] || nan[x+1] {
				dst[x] = median(x, y)
				continue
			}
			l := max3(lo[x-1], lo[x], lo[x+1])
			m := med3(mid[x-1], mid[x], mid[x+1])
			u := min3(hi[x-1], hi[x], hi[x+1])
			v := med3(l, m, u)
			if v == 0 {
				v = median(x, y)
			}
			dst[x] = v
		}
		dst[w-1] = median(w-1, y)
	}
	return out
}

// sort3, med3, max3 and min3 order NaN-free values: sort3 returns a, b
// and c ascending, med3 the middle one.
func sort3(a, b, c float64) (float64, float64, float64) {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b, c = c, b
		if b < a {
			a, b = b, a
		}
	}
	return a, b, c
}

func med3(a, b, c float64) float64 {
	_, m, _ := sort3(a, b, c)
	return m
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
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
