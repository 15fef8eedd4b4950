package denoise

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/img"
	"repro/internal/obs"
)

// stepImage builds a two-material test slice: dark left half, bright
// right half, like a wire against oxide in a SEM cross section.
func stepImage(w, h int) *img.Gray {
	g := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := w / 2; x < w; x++ {
			g.Set(x, y, 1)
		}
	}
	return g
}

func addNoise(g *img.Gray, sigma float64, seed int64) *img.Gray {
	rng := rand.New(rand.NewSource(seed))
	out := g.Clone()
	for i := range out.Pix {
		out.Pix[i] += rng.NormFloat64() * sigma
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	g := img.New(4, 4)
	cases := []struct {
		name string
		o    Options
	}{
		{"zero lambda", Options{Lambda: 0, Iterations: 5}},
		{"negative lambda", Options{Lambda: -1, Iterations: 5}},
		{"NaN lambda", Options{Lambda: math.NaN(), Iterations: 5}},
		{"+Inf lambda", Options{Lambda: math.Inf(1), Iterations: 5}},
		{"-Inf lambda", Options{Lambda: math.Inf(-1), Iterations: 5}},
		{"zero iterations", Options{Lambda: 1, Iterations: 0}},
		{"NaN tol", Options{Lambda: 1, Iterations: 5, Tol: math.NaN()}},
		{"+Inf tol", Options{Lambda: 1, Iterations: 5, Tol: math.Inf(1)}},
		{"-Inf tol", Options{Lambda: 1, Iterations: 5, Tol: math.Inf(-1)}},
	}
	for _, tc := range cases {
		if _, err := Chambolle(g, tc.o); err == nil {
			t.Errorf("Chambolle: expected error for %s", tc.name)
		}
		if _, err := SplitBregman(g, tc.o); err == nil {
			t.Errorf("SplitBregman: expected error for %s", tc.name)
		}
	}
}

func TestChambolleImprovesPSNR(t *testing.T) {
	clean := stepImage(32, 32)
	noisy := addNoise(clean, 0.15, 7)
	den, err := Chambolle(noisy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := img.PSNR(clean, noisy)
	p1, _ := img.PSNR(clean, den)
	if p1 <= p0 {
		t.Errorf("Chambolle should improve PSNR: %.2f -> %.2f dB", p0, p1)
	}
	if p1-p0 < 3 {
		t.Errorf("expected at least 3 dB improvement, got %.2f", p1-p0)
	}
}

func TestSplitBregmanImprovesPSNR(t *testing.T) {
	clean := stepImage(32, 32)
	noisy := addNoise(clean, 0.15, 11)
	den, err := SplitBregman(noisy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := img.PSNR(clean, noisy)
	p1, _ := img.PSNR(clean, den)
	if p1 <= p0 {
		t.Errorf("SplitBregman should improve PSNR: %.2f -> %.2f dB", p0, p1)
	}
}

func TestDenoisingReducesTV(t *testing.T) {
	clean := stepImage(24, 24)
	noisy := addNoise(clean, 0.2, 3)
	tvNoisy := TotalVariation(noisy)
	for name, fn := range map[string]func(*img.Gray, Options) (*img.Gray, error){
		"chambolle":    Chambolle,
		"splitbregman": SplitBregman,
	} {
		den, err := fn(noisy, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tv := TotalVariation(den); tv >= tvNoisy {
			t.Errorf("%s: TV not reduced: %.2f >= %.2f", name, tv, tvNoisy)
		}
	}
}

func TestEdgePreservation(t *testing.T) {
	// After denoising, the step edge must remain: the intensity
	// difference across the boundary should stay large relative to the
	// in-region variation.
	clean := stepImage(32, 32)
	noisy := addNoise(clean, 0.1, 5)
	den, err := Chambolle(noisy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	leftMean, rightMean := 0.0, 0.0
	for y := 0; y < 32; y++ {
		leftMean += den.At(4, y)
		rightMean += den.At(27, y)
	}
	leftMean /= 32
	rightMean /= 32
	if rightMean-leftMean < 0.7 {
		t.Errorf("edge washed out: left %.3f right %.3f", leftMean, rightMean)
	}
}

func TestConstantImageIsFixedPoint(t *testing.T) {
	g := img.New(16, 16)
	g.Fill(0.42)
	for name, fn := range map[string]func(*img.Gray, Options) (*img.Gray, error){
		"chambolle":    Chambolle,
		"splitbregman": SplitBregman,
	} {
		den, err := fn(g, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range den.Pix {
			if math.Abs(v-0.42) > 1e-6 {
				t.Fatalf("%s: constant image changed at %d: %v", name, i, v)
			}
		}
	}
}

func TestHighLambdaApproachesIdentity(t *testing.T) {
	noisy := addNoise(stepImage(16, 16), 0.05, 9)
	den, err := Chambolle(noisy, Options{Lambda: 1e6, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := img.MSE(noisy, den)
	if m > 1e-6 {
		t.Errorf("huge lambda should return near-identity, MSE %v", m)
	}
}

// TestTolEarlyStop checks that a loose tolerance stops both kernels
// well before the iteration bound, and that stopping early is exactly a
// shorter run: the output is bit-identical to a Tol 0 run of the same
// number of iterations.
func TestTolEarlyStop(t *testing.T) {
	noisy := addNoise(stepImage(16, 16), 0.1, 2)
	for name, fn := range map[string]func(*img.Gray, Options) (*img.Gray, error){
		"chambolle":    Chambolle,
		"splitbregman": SplitBregman,
	} {
		m := obs.NewMetrics()
		den, err := fn(noisy, Options{Lambda: 8, Iterations: 500, Tol: 1e-2, Obs: &obs.Observer{Metrics: m}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		iters := m.Snapshot().Counters["denoise.iterations"]
		if iters <= 0 || iters >= 500 {
			t.Fatalf("%s: tolerance did not stop early: %d iterations", name, iters)
		}
		ref, err := fn(noisy, Options{Lambda: 8, Iterations: int(iters)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ref.Pix {
			if math.Float64bits(den.Pix[i]) != math.Float64bits(ref.Pix[i]) {
				t.Fatalf("%s: pixel %d: early stop at %d iterations gave %v, a %d-iteration run %v",
					name, i, iters, den.Pix[i], iters, ref.Pix[i])
			}
		}
	}
}

func TestTotalVariationValues(t *testing.T) {
	g := img.New(2, 1)
	g.Set(1, 0, 1)
	if tv := TotalVariation(g); tv != 1 {
		t.Errorf("TV of single step = %v", tv)
	}
	flat := img.New(5, 5)
	flat.Fill(3)
	if tv := TotalVariation(flat); tv != 0 {
		t.Errorf("TV of constant = %v", tv)
	}
}

func TestShrinkOperator(t *testing.T) {
	cases := []struct{ v, t, want float64 }{
		{2, 1, 1},
		{-2, 1, -1},
		{0.5, 1, 0},
		{-0.5, 1, 0},
		{1, 1, 0},
	}
	for _, c := range cases {
		if got := shrink(c.v, c.t); got != c.want {
			t.Errorf("shrink(%v,%v) = %v want %v", c.v, c.t, got, c.want)
		}
	}
}

// Property: denoised output mean stays close to input mean (TV flows
// preserve mass approximately).
func TestMeanPreservation(t *testing.T) {
	f := func(seed int64) bool {
		noisy := addNoise(stepImage(16, 16), 0.1, seed)
		den, err := Chambolle(noisy, Options{Lambda: 8, Iterations: 40})
		if err != nil {
			return false
		}
		return math.Abs(den.Statistics().Mean-noisy.Statistics().Mean) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: output pixels stay within a small margin of the input range.
func TestRangeStability(t *testing.T) {
	f := func(seed int64) bool {
		noisy := addNoise(stepImage(12, 12), 0.1, seed)
		s0 := noisy.Statistics()
		den, err := SplitBregman(noisy, Options{Lambda: 8, Iterations: 30})
		if err != nil {
			return false
		}
		s1 := den.Statistics()
		return s1.Min > s0.Min-0.1 && s1.Max < s0.Max+0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func BenchmarkChambolle64(b *testing.B) {
	noisy := addNoise(stepImage(64, 64), 0.1, 1)
	o := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Chambolle(noisy, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitBregman64(b *testing.B) {
	noisy := addNoise(stepImage(64, 64), 0.1, 1)
	o := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SplitBregman(noisy, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChambolleSlice is the TV sweep kernel at workload size: one
// 1857x39 slice, the cross section of chip B4's default extraction,
// denoised with the pipeline's settings (lambda 25, 60 iterations, Tol
// 1e-5) through a warm Scratch, as a streaming pipeline worker runs it.
// The noise level keeps the tolerance from firing, as on real B4
// slices; iters/op reports the iterations actually run.
func BenchmarkChambolleSlice(b *testing.B) {
	f := addNoise(stepImage(1857, 39), 0.05, 1)
	dst := img.New(f.W, f.H)
	m := obs.NewMetrics()
	o := Options{Lambda: 25, Iterations: 60, Tol: 1e-5, Obs: &obs.Observer{Metrics: m}}
	s := &Scratch{}
	if err := ChambolleInto(context.Background(), dst, f, o, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ChambolleInto(context.Background(), dst, f, o, s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c := m.Snapshot().Counters
	b.ReportMetric(float64(c["denoise.iterations"])/float64(c["denoise.slices"]), "iters/op")
}
