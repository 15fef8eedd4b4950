package img

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refGaussianBlur is GaussianBlur as it was before the interior fast
// path, kept verbatim: every tap through AtClamp.
func refGaussianBlur(g *Gray, sigma float64) *Gray {
	k := GaussianKernel(sigma)
	r := len(k) / 2
	// Horizontal pass.
	tmp := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float64
			for i := -r; i <= r; i++ {
				s += k[i+r] * g.AtClamp(x+i, y)
			}
			tmp.Set(x, y, s)
		}
	}
	// Vertical pass.
	out := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float64
			for i := -r; i <= r; i++ {
				s += k[i+r] * tmp.AtClamp(x, y+i)
			}
			out.Set(x, y, s)
		}
	}
	return out
}

// refMedianFilter is MedianFilter as it was before the insertion sort,
// kept verbatim: every window through sort.Float64s.
func refMedianFilter(g *Gray, radius int) *Gray {
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
			sort.Float64s(window)
			out.Set(x, y, window[len(window)/2])
		}
	}
	return out
}

// filterInput is a random image with runs of repeated values, signed
// zeros and (optionally) NaNs, so ties and the comparison's corner cases
// occur inside the windows.
func filterInput(w, h int, seed int64, nans bool) *Gray {
	rng := rand.New(rand.NewSource(seed))
	g := New(w, h)
	for i := range g.Pix {
		switch rng.Intn(8) {
		case 0:
			g.Pix[i] = 0
		case 1:
			g.Pix[i] = math.Copysign(0, -1)
		case 2:
			g.Pix[i] = 0.5
		case 3:
			if nans {
				g.Pix[i] = math.NaN()
				continue
			}
			fallthrough
		default:
			g.Pix[i] = rng.NormFloat64()
		}
	}
	return g
}

// sameBits reports the first pixel whose float64 bits differ.
func sameBits(t *testing.T, name string, got, want *Gray) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d) = %v, reference %v",
				name, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

// zeroInput is a random image of mostly signed zeros among ±1, so most
// medians are zeros whose sign depends on the window's order.
func zeroInput(w, h int, seed int64) *Gray {
	rng := rand.New(rand.NewSource(seed))
	vals := []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1}
	g := New(w, h)
	for i := range g.Pix {
		g.Pix[i] = vals[rng.Intn(len(vals))]
	}
	return g
}

// The filters' fast paths (direct Pix taps inside the image, the
// insertion-sorted median window, the column-sorted radius-1 median)
// must reproduce the clamped reference loops bit for bit: odd sizes,
// images smaller than the stencil, rows wider than 64, the identity
// kernel of sigma 0, and medians over NaN-free input, NaN-laden input
// and input whose medians are mostly signed zeros.
func TestFiltersMatchClampedReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {2, 3}, {3, 2}, {3, 3}, {5, 7}, {17, 9}, {33, 39}, {97, 6}}
	for _, sz := range sizes {
		seed := int64(sz[0]*100 + sz[1])
		g := filterInput(sz[0], sz[1], seed, false)
		for _, sigma := range []float64{0, 0.7, 1.5, 4} {
			sameBits(t, "GaussianBlur", GaussianBlur(g, sigma), refGaussianBlur(g, sigma))
		}
		inputs := []struct {
			name string
			g    *Gray
		}{
			{"NaN-free", g},
			{"NaN-laden", filterInput(sz[0], sz[1], seed, true)},
			{"signed zeros", zeroInput(sz[0], sz[1], seed)},
		}
		for _, in := range inputs {
			for _, radius := range []int{0, 1, 2} {
				name := fmt.Sprintf("MedianFilter %dx%d %s r=%d", sz[0], sz[1], in.name, radius)
				sameBits(t, name, MedianFilter(in.g, radius), refMedianFilter(in.g, radius))
			}
		}
	}
}
