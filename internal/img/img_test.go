package img

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := New(3, 2).Validate(); err != nil {
		t.Errorf("fresh image invalid: %v", err)
	}
	for name, g := range map[string]*Gray{
		"nil":           nil,
		"zero-value":    {},
		"negative-dims": {W: -1, H: 4},
		"short-pix":     {W: 2, H: 2, Pix: make([]float64, 2)},
		"long-pix":      {W: 2, H: 2, Pix: make([]float64, 9)},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

func TestNewAndAccess(t *testing.T) {
	g := New(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("bad image shape: %dx%d len %d", g.W, g.H, len(g.Pix))
	}
	g.Set(2, 1, 0.5)
	if g.At(2, 1) != 0.5 {
		t.Errorf("At = %v", g.At(2, 1))
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for zero width")
		}
	}()
	New(0, 5)
}

func TestAtClamp(t *testing.T) {
	g := New(3, 3)
	for i := range g.Pix {
		g.Pix[i] = float64(i)
	}
	if got := g.AtClamp(-5, -5); got != g.At(0, 0) {
		t.Errorf("clamp top-left = %v", got)
	}
	if got := g.AtClamp(99, 99); got != g.At(2, 2) {
		t.Errorf("clamp bottom-right = %v", got)
	}
	if got := g.AtClamp(1, 1); got != g.At(1, 1) {
		t.Errorf("clamp interior = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(2, 2)
	g.Set(0, 0, 1)
	c := g.Clone()
	c.Set(0, 0, 2)
	if g.At(0, 0) != 1 {
		t.Errorf("clone mutated original")
	}
}

func TestCrop(t *testing.T) {
	g := New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			g.Set(x, y, float64(y*10+x))
		}
	}
	c, err := g.Crop(2, 3, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 3 || c.H != 5 {
		t.Fatalf("crop dims %dx%d", c.W, c.H)
	}
	if c.At(0, 0) != g.At(2, 3) || c.At(2, 4) != g.At(4, 7) {
		t.Errorf("crop content wrong")
	}
	if _, err := g.Crop(-1, 0, 5, 5); err == nil {
		t.Errorf("expected error for negative crop")
	}
	if _, err := g.Crop(5, 5, 5, 8); err == nil {
		t.Errorf("expected error for empty crop")
	}
	if _, err := g.Crop(0, 0, 11, 5); err == nil {
		t.Errorf("expected error for oversize crop")
	}
}

func TestStatisticsAndNormalize(t *testing.T) {
	g := New(2, 2)
	copy(g.Pix, []float64{1, 2, 3, 4})
	s := g.Statistics()
	if s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("stats = %+v", s)
	}
	wantStd := math.Sqrt(1.25)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %v want %v", s.Std, wantStd)
	}
	g.Normalize()
	s = g.Statistics()
	if s.Min != 0 || s.Max != 1 {
		t.Errorf("normalized range [%v,%v]", s.Min, s.Max)
	}
	flat := New(3, 3)
	flat.Fill(7)
	flat.Normalize()
	if flat.Statistics().Max != 0 {
		t.Errorf("constant image should normalize to zero")
	}
}

func TestClampAddScale(t *testing.T) {
	g := New(1, 3)
	copy(g.Pix, []float64{-1, 0.5, 2})
	g.Clamp(0, 1)
	if g.Pix[0] != 0 || g.Pix[1] != 0.5 || g.Pix[2] != 1 {
		t.Errorf("clamp = %v", g.Pix)
	}
	o := New(1, 3)
	o.Fill(1)
	if err := g.Add(o); err != nil {
		t.Fatal(err)
	}
	if g.Pix[0] != 1 || g.Pix[2] != 2 {
		t.Errorf("add = %v", g.Pix)
	}
	if err := g.Add(New(2, 2)); err == nil {
		t.Errorf("expected dimension error")
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if m, err := MSE(a, b); err != nil || m != 0 {
		t.Errorf("MSE identical = %v, %v", m, err)
	}
	if p, err := PSNR(a, b); err != nil || !math.IsInf(p, 1) {
		t.Errorf("PSNR identical should be +Inf, got %v", p)
	}
	b.Fill(0.1)
	m, err := MSE(a, b)
	if err != nil || math.Abs(m-0.01) > 1e-12 {
		t.Errorf("MSE = %v", m)
	}
	p, _ := PSNR(a, b)
	if math.Abs(p-20) > 1e-9 {
		t.Errorf("PSNR = %v want 20", p)
	}
	if _, err := MSE(a, New(3, 3)); err == nil {
		t.Errorf("expected dimension error")
	}
}

func TestHistogram(t *testing.T) {
	g := New(1, 4)
	copy(g.Pix, []float64{0, 0.26, 0.51, 2.0})
	h := g.Histogram(4, 0, 1)
	if h[0] != 1 || h[1] != 1 || h[2] != 1 || h[3] != 1 {
		t.Errorf("histogram = %v", h)
	}
	// Degenerate range falls back to unit width.
	h = g.Histogram(2, 0.5, 0.5)
	if h[0]+h[1] != 4 {
		t.Errorf("degenerate histogram lost pixels: %v", h)
	}
}

func TestTranslateInteger(t *testing.T) {
	g := New(3, 3)
	g.Set(1, 1, 1)
	s := g.Translate(1, 0)
	if s.At(2, 1) != 1 {
		t.Errorf("translate failed: %v", s.Pix)
	}
	if s.At(1, 1) != 0 {
		t.Errorf("original position should be vacated")
	}
}

func TestBilinearAt(t *testing.T) {
	g := New(2, 2)
	copy(g.Pix, []float64{0, 1, 0, 1})
	if v := g.BilinearAt(0.5, 0.5); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("bilinear center = %v", v)
	}
	if v := g.BilinearAt(0, 0); v != 0 {
		t.Errorf("bilinear corner = %v", v)
	}
	if v := g.BilinearAt(-3, -3); v != 0 {
		t.Errorf("bilinear clamps = %v", v)
	}
}

func TestTranslateSubpixelRoundTrip(t *testing.T) {
	// Shifting a smooth image by +0.5 then -0.5 should approximately
	// restore it away from the borders.
	g := New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			g.Set(x, y, math.Sin(float64(x)/3)+math.Cos(float64(y)/4))
		}
	}
	s := g.TranslateSubpixel(0.5, 0).TranslateSubpixel(-0.5, 0)
	for y := 2; y < 14; y++ {
		for x := 2; x < 14; x++ {
			if math.Abs(s.At(x, y)-g.At(x, y)) > 0.05 {
				t.Fatalf("round trip error at (%d,%d): %v vs %v", x, y, s.At(x, y), g.At(x, y))
			}
		}
	}
}

func TestDownsample(t *testing.T) {
	g := New(4, 4)
	for i := range g.Pix {
		g.Pix[i] = float64(i % 2)
	}
	d := g.Downsample(2)
	if d.W != 2 || d.H != 2 {
		t.Fatalf("downsample dims %dx%d", d.W, d.H)
	}
	if d.At(0, 0) != 0.5 {
		t.Errorf("box average = %v", d.At(0, 0))
	}
	if same := g.Downsample(1); same.W != 4 {
		t.Errorf("factor 1 should be identity")
	}
	if same := g.Downsample(10); same.W != 4 {
		t.Errorf("oversized factor should return clone")
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		k := GaussianKernel(sigma)
		var sum float64
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("sigma %v: kernel sum %v", sigma, sum)
		}
		if len(k)%2 != 1 {
			t.Errorf("kernel must have odd length, got %d", len(k))
		}
	}
	if k := GaussianKernel(0); len(k) != 1 || k[0] != 1 {
		t.Errorf("zero sigma should be identity kernel")
	}
}

func TestGaussianBlurPreservesMeanAndReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(32, 32)
	for i := range g.Pix {
		g.Pix[i] = rng.Float64()
	}
	b := GaussianBlur(g, 1.5)
	s0, s1 := g.Statistics(), b.Statistics()
	if math.Abs(s0.Mean-s1.Mean) > 0.02 {
		t.Errorf("blur changed mean: %v -> %v", s0.Mean, s1.Mean)
	}
	if s1.Std >= s0.Std {
		t.Errorf("blur should reduce variance: %v -> %v", s0.Std, s1.Std)
	}
}

func TestMedianFilterRemovesImpulse(t *testing.T) {
	g := New(9, 9)
	g.Fill(0.5)
	g.Set(4, 4, 10) // impulse
	m := MedianFilter(g, 1)
	if m.At(4, 4) != 0.5 {
		t.Errorf("median should remove impulse, got %v", m.At(4, 4))
	}
	if id := MedianFilter(g, 0); id.At(4, 4) != 10 {
		t.Errorf("radius 0 should be identity")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := New(7, 5)
	for i := range g.Pix {
		g.Pix[i] = float64(i) / float64(len(g.Pix))
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	r, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 7 || r.H != 5 {
		t.Fatalf("round trip dims %dx%d", r.W, r.H)
	}
	for i := range g.Pix {
		if math.Abs(r.Pix[i]-g.Pix[i]) > 1.0/255+1e-9 {
			t.Fatalf("pixel %d: %v vs %v", i, r.Pix[i], g.Pix[i])
		}
	}
}

func TestReadPGMErrors(t *testing.T) {
	if _, err := ReadPGM(bytes.NewBufferString("P2\n2 2\n255\n")); err == nil {
		t.Errorf("expected error for ascii PGM")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P5\n0 2\n255\n")); err == nil {
		t.Errorf("expected error for zero width")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P5\n2 2\n255\nab")); err == nil {
		t.Errorf("expected error for short data")
	}
}

// Property: Translate then reverse-Translate restores interior pixels.
func TestTranslatePropertyInverse(t *testing.T) {
	f := func(seed int64, dxs, dys uint8) bool {
		dx := int(dxs%4) + 1
		dy := int(dys % 4)
		rng := rand.New(rand.NewSource(seed))
		g := New(16, 16)
		for i := range g.Pix {
			g.Pix[i] = rng.Float64()
		}
		s := g.Translate(dx, dy).Translate(-dx, -dy)
		for y := 5; y < 11; y++ {
			for x := 5; x < 11; x++ {
				if s.At(x, y) != g.At(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is idempotent.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(8, 8)
		for i := range g.Pix {
			g.Pix[i] = rng.NormFloat64() * 10
		}
		g.Normalize()
		once := g.Clone()
		g.Normalize()
		for i := range g.Pix {
			if math.Abs(g.Pix[i]-once.Pix[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
