package segment

import (
	"math/rand"
	"testing"

	"repro/internal/img"
)

func TestOtsuSeparatesBimodal(t *testing.T) {
	g := img.New(20, 20)
	for i := range g.Pix {
		if i%3 == 0 {
			g.Pix[i] = 0.9
		} else {
			g.Pix[i] = 0.1
		}
	}
	thr := Otsu(g)
	if thr <= 0.1 || thr >= 0.9 {
		t.Errorf("threshold %v not between modes", thr)
	}
	flat := img.New(4, 4)
	flat.Fill(0.5)
	if thr := Otsu(flat); thr != 0.5 {
		t.Errorf("constant image threshold = %v", thr)
	}
}

func TestOtsuWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := img.New(32, 32)
	for i := range g.Pix {
		base := 0.2
		if i%2 == 0 {
			base = 0.8
		}
		g.Pix[i] = base + rng.NormFloat64()*0.05
	}
	thr := Otsu(g)
	if thr < 0.3 || thr > 0.7 {
		t.Errorf("noisy threshold %v outside [0.3, 0.7]", thr)
	}
}

func TestThreshold(t *testing.T) {
	g := img.New(2, 1)
	g.Pix = []float64{0.2, 0.8}
	m := Threshold(g, 0.5)
	if m[0] || !m[1] {
		t.Errorf("mask = %v", m)
	}
}

func maskFromRects(w, h int, rects [][4]int) []bool {
	m := make([]bool, w*h)
	for _, r := range rects {
		for y := r[1]; y < r[3]; y++ {
			for x := r[0]; x < r[2]; x++ {
				m[y*w+x] = true
			}
		}
	}
	return m
}
