package register

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/img"
)

// texture builds a structured test image resembling an IC cross section:
// periodic vertical wires plus a horizontal layer boundary.
func texture(w, h int, seed int64) *img.Gray {
	rng := rand.New(rand.NewSource(seed))
	g := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.2
			if (x/4)%2 == 0 {
				v = 0.8
			}
			if y > h/2 {
				v *= 0.6
			}
			g.Set(x, y, v+0.02*rng.NormFloat64())
		}
	}
	return g
}

// symOptions is a symmetric search window for tests that shift in Y.
func symOptions() Options {
	return Options{MaxShift: 6, MaxShiftY: 6, Bins: 32, Margin: 2}
}

func TestShiftArithmetic(t *testing.T) {
	a := Shift{2, -3}
	b := Shift{-1, 5}
	if got := a.Add(b); got != (Shift{1, 2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Neg(); got != (Shift{-2, 3}) {
		t.Errorf("Neg = %v", got)
	}
}

func TestMutualInformationSelfIsEntropy(t *testing.T) {
	g := texture(32, 32, 1)
	mi, err := MutualInformation(g, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	// I(A;A) = H(A) > 0 for a non-constant image.
	if mi <= 0 {
		t.Errorf("self MI should be positive, got %v", mi)
	}
	// MI with an independent image should be much smaller.
	other := texture(32, 32, 99)
	noise := img.New(32, 32)
	rng := rand.New(rand.NewSource(5))
	for i := range noise.Pix {
		noise.Pix[i] = rng.Float64()
	}
	miNoise, err := MutualInformation(other, noise, 16)
	if err != nil {
		t.Fatal(err)
	}
	if miNoise >= mi/2 {
		t.Errorf("MI with noise (%v) should be well below self MI (%v)", miNoise, mi)
	}
}

func TestMutualInformationErrors(t *testing.T) {
	a := img.New(4, 4)
	if _, err := MutualInformation(a, img.New(5, 5), 8); err == nil {
		t.Errorf("expected size mismatch error")
	}
	if _, err := MutualInformation(a, a, 1); err == nil {
		t.Errorf("expected bins error")
	}
}

func TestMutualInformationInvariantToMonotoneRemap(t *testing.T) {
	// MI should survive an intensity remap that correlation would not:
	// this is why the paper uses it across FIB slices.
	a := texture(32, 32, 2)
	b := a.Clone()
	for i, v := range b.Pix {
		b.Pix[i] = 1 - 0.5*v // inverted and compressed contrast
	}
	miRemap, err := MutualInformation(a, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	miSelf, _ := MutualInformation(a, a, 16)
	if miRemap < 0.8*miSelf {
		t.Errorf("MI not robust to monotone remap: %v vs self %v", miRemap, miSelf)
	}
}

func TestAlignRecoversKnownShift(t *testing.T) {
	base := texture(48, 48, 3)
	for _, want := range []Shift{{0, 0}, {2, 0}, {0, -3}, {-4, 2}, {5, 5}} {
		moved := base.Translate(want.DX, want.DY)
		got, mi, err := AlignCtx(context.Background(), base, moved, symOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The correcting shift is the negation of the applied one.
		if got != want.Neg() {
			t.Errorf("shift %v: recovered %v, want %v (MI %v)", want, got, want.Neg(), mi)
		}
	}
}

func TestAlignWithNoiseAndContrastChange(t *testing.T) {
	base := texture(48, 48, 4)
	moved := base.Translate(3, -2)
	rng := rand.New(rand.NewSource(8))
	for i, v := range moved.Pix {
		moved.Pix[i] = 0.9*v + 0.05 + 0.03*rng.NormFloat64()
	}
	got, _, err := AlignCtx(context.Background(), base, moved, symOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got != (Shift{-3, 2}) {
		t.Errorf("recovered %v, want {-3 2}", got)
	}
}

func TestAlignIdentityOnSameImage(t *testing.T) {
	g := texture(40, 40, 6)
	s, _, err := AlignCtx(context.Background(), g, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != (Shift{0, 0}) {
		t.Errorf("self-alignment should be identity, got %v", s)
	}
}

func TestAlignValidation(t *testing.T) {
	g := texture(40, 40, 1)
	small := texture(8, 8, 1)
	cases := []struct {
		name          string
		fixed, moving *img.Gray
		o             Options
	}{
		{"size-mismatch", g, texture(32, 32, 1), DefaultOptions()},
		{"too-small", small, small, DefaultOptions()},
		{"negative-MaxShift", g, g, Options{MaxShift: -1, Bins: 8}},
		{"negative-MaxShiftY", g, g, Options{MaxShift: 2, MaxShiftY: -1, Bins: 8}},
		{"Bins-1", g, g, Options{MaxShift: 2, Bins: 1}},
		{"Bins-above-index-range", g, g, Options{MaxShift: 2, Bins: maxBins + 1}},
		{"negative-Margin", g, g, Options{MaxShift: 2, Bins: 8, Margin: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := AlignCtx(context.Background(), tc.fixed, tc.moving, tc.o); err == nil {
				t.Errorf("Align accepted %+v", tc.o)
			}
		})
	}
	// The largest bin count the kernel's index types hold is accepted.
	if _, _, err := AlignCtx(context.Background(), g, g, Options{MaxShift: 2, Bins: maxBins}); err != nil {
		t.Errorf("Bins = %d rejected: %v", maxBins, err)
	}
}

func TestAlignStackCorrectsCumulativeDrift(t *testing.T) {
	base := texture(48, 48, 7)
	// Simulate drift: each slice shifts one more pixel to the right.
	var stack []*img.Gray
	for i := 0; i < 5; i++ {
		stack = append(stack, base.Translate(i, 0))
	}
	aligned, res, err := AlignStackCtx(context.Background(), stack, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifts[0] != (Shift{0, 0}) {
		t.Errorf("first shift must be zero")
	}
	for i := 1; i < 5; i++ {
		if res.Shifts[i] != (Shift{-i, 0}) {
			t.Errorf("slice %d: shift %v, want {-%d 0}", i, res.Shifts[i], i)
		}
	}
	drift, err := ResidualDriftCtx(context.Background(), aligned, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if drift > 0.01 {
		t.Errorf("aligned stack residual drift %v should be ~0", drift)
	}
}

// A pooled Stacker owns every slice pushed into it: with the aligned
// outputs put back and the stacker released, the pool holds nothing,
// after a successful stack and after a failed pair alike, and the
// pooled outputs equal AlignStackCtx's.
func TestStackerPoolOwnership(t *testing.T) {
	base := texture(48, 48, 7)
	stack := []*img.Gray{base, base.Translate(1, 0), base.Translate(3, -1)}
	want, _, err := AlignStackCtx(context.Background(), stack, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool := img.NewPool()
	st := NewStacker(DefaultOptions(), pool)
	for i, s := range stack {
		g := pool.Get(s.W, s.H)
		copy(g.Pix, s.Pix)
		a, _, err := st.Push(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a.Pix {
			if a.Pix[k] != want[i].Pix[k] {
				t.Fatalf("slice %d: pooled Push differs from AlignStackCtx at pixel %d", i, k)
			}
		}
		pool.Put(a)
	}
	if _, _, err := st.Push(context.Background(), pool.Get(47, 48)); err == nil {
		t.Fatal("Push accepted a slice of another size")
	}
	st.Release()
	if live := pool.Stats().Live; live != 0 {
		t.Errorf("%d pooled buffers still outstanding", live)
	}
}

func TestAlignStackEmpty(t *testing.T) {
	if _, _, err := AlignStackCtx(context.Background(), nil, DefaultOptions()); err == nil {
		t.Errorf("expected error for empty stack")
	}
}

func TestResidualDriftDetectsMisalignment(t *testing.T) {
	base := texture(48, 48, 9)
	stack := []*img.Gray{base, base.Translate(4, 0), base.Translate(8, 0)}
	drift, err := ResidualDriftCtx(context.Background(), stack, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(drift-4) > 0.5 {
		t.Errorf("drift = %v, want ~4", drift)
	}
	single, err := ResidualDriftCtx(context.Background(), stack[:1], DefaultOptions())
	if err != nil || single != 0 {
		t.Errorf("single-slice drift should be 0, got %v (%v)", single, err)
	}
}

// Property: alignment exactly inverts any translation within the window.
func TestAlignInvertsTranslationProperty(t *testing.T) {
	base := texture(48, 48, 11)
	f := func(dx8, dy8 int8) bool {
		dx := int(dx8)%5 - 2
		dy := int(dy8)%5 - 2
		moved := base.Translate(dx, dy)
		got, _, err := AlignCtx(context.Background(), base, moved, symOptions())
		if err != nil {
			return false
		}
		return got == (Shift{-dx, -dy})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The parallel candidate search must select the same shift and MI as the
// sequential scan for any worker count — including on a flat similarity
// surface where only the deterministic tie-break decides.
func TestAlignParallelMatchesSerial(t *testing.T) {
	base := texture(48, 48, 13)
	rng := rand.New(rand.NewSource(21))
	moved := base.Translate(3, -2)
	for i, v := range moved.Pix {
		moved.Pix[i] = 0.95*v + 0.02*rng.NormFloat64()
	}
	flat := img.New(48, 48)
	cases := []struct {
		name          string
		fixed, moving *img.Gray
	}{
		{"textured", base, moved},
		{"flat-tie-break", flat, flat.Clone()},
	}
	for _, tc := range cases {
		serial := symOptions()
		serial.Workers = 1
		wantS, wantMI, err := AlignCtx(context.Background(), tc.fixed, tc.moving, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			o := symOptions()
			o.Workers = workers
			gotS, gotMI, err := AlignCtx(context.Background(), tc.fixed, tc.moving, o)
			if err != nil {
				t.Fatal(err)
			}
			if gotS != wantS || gotMI != wantMI {
				t.Errorf("%s workers=%d: (%v, %v), want (%v, %v)",
					tc.name, workers, gotS, gotMI, wantS, wantMI)
			}
		}
	}
}

func TestAlignStackParallelMatchesSerial(t *testing.T) {
	base := texture(48, 48, 17)
	var stack []*img.Gray
	for i := 0; i < 4; i++ {
		stack = append(stack, base.Translate(i, -i))
	}
	serial := symOptions()
	serial.Workers = 1
	wantImgs, wantRes, err := AlignStackCtx(context.Background(), stack, serial)
	if err != nil {
		t.Fatal(err)
	}
	o := symOptions()
	o.Workers = 8
	gotImgs, gotRes, err := AlignStackCtx(context.Background(), stack, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRes.Shifts {
		if gotRes.Shifts[i] != wantRes.Shifts[i] || gotRes.PairMI[i] != wantRes.PairMI[i] {
			t.Errorf("slice %d: (%v, %v), want (%v, %v)", i,
				gotRes.Shifts[i], gotRes.PairMI[i], wantRes.Shifts[i], wantRes.PairMI[i])
		}
		for j := range wantImgs[i].Pix {
			if gotImgs[i].Pix[j] != wantImgs[i].Pix[j] {
				t.Fatalf("slice %d pixel %d differs", i, j)
			}
		}
	}
}

// aperiodic builds a smooth but non-repeating test image: seeded white
// noise blurred twice, so the MI surface has a single unambiguous peak
// (texture's periodic wires alias shifts by multiples of the pitch).
func aperiodic(w, h int, seed int64) *img.Gray {
	rng := rand.New(rand.NewSource(seed))
	g := img.New(w, h)
	for i := range g.Pix {
		g.Pix[i] = rng.Float64()
	}
	for pass := 0; pass < 2; pass++ {
		sm := img.New(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var s float64
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						s += g.AtClamp(x+dx, y+dy)
					}
				}
				sm.Set(x, y, s/9)
			}
		}
		g = sm
	}
	return g
}

// AlignRobustCtx acceptance behaviour, covering the low-confidence floor,
// window-edge peaks, the widened-retry recovery and fallback exhaustion.
func TestAlignRobustTable(t *testing.T) {
	base := aperiodic(64, 64, 41)
	noise := aperiodic(64, 64, 97) // independent content: MI is low everywhere
	cases := []struct {
		name          string
		moving        *img.Gray
		opts          func(o *Options)
		wantShift     Shift
		wantFallback  bool
		wantMinWidens int
	}{
		{
			name:   "robust-disabled-reduces-to-align",
			moving: base.Translate(2, 1),
			opts: func(o *Options) {
				o.MinConfidence, o.WidenRetries = 0, 0
			},
			wantShift: Shift{-2, -1},
		},
		{
			name:   "low-confidence-falls-back-to-identity",
			moving: noise,
			opts: func(o *Options) {
				o.MinConfidence = 0.5
			},
			wantShift:    Shift{},
			wantFallback: true,
		},
		{
			name:   "edge-peak-widens-and-recovers",
			moving: base.Translate(6, 0),
			opts: func(o *Options) {
				o.MaxShift, o.MaxShiftY = 4, 4
				o.WidenRetries = 2
			},
			wantShift:     Shift{-6, 0},
			wantMinWidens: 1,
		},
		{
			name:   "edge-peak-without-retries-falls-back",
			moving: base.Translate(6, 0),
			opts: func(o *Options) {
				o.MaxShift, o.MaxShiftY = 4, 4
				o.MinConfidence = 0.01 // enables robust checks, floor itself passes
			},
			wantShift:    Shift{},
			wantFallback: true,
		},
		{
			name:   "widen-exhausted-falls-back",
			moving: base.Translate(20, 0),
			opts: func(o *Options) {
				o.MaxShift, o.MaxShiftY = 2, 2
				o.WidenRetries = 1 // widens to 4, true shift 20 stays outside
			},
			wantShift:     Shift{},
			wantFallback:  true,
			wantMinWidens: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := symOptions()
			tc.opts(&o)
			got, err := AlignRobustCtx(context.Background(), base, tc.moving, o)
			if err != nil {
				t.Fatal(err)
			}
			if got.Shift != tc.wantShift || got.Fallback != tc.wantFallback {
				t.Errorf("AlignRobust = {shift %v fallback %v widened %d}, want {shift %v fallback %v}",
					got.Shift, got.Fallback, got.Widened, tc.wantShift, tc.wantFallback)
			}
			if got.Widened < tc.wantMinWidens {
				t.Errorf("Widened = %d, want >= %d", got.Widened, tc.wantMinWidens)
			}
		})
	}
}

// With robust options off, AlignRobustCtx must agree bit-for-bit with AlignCtx
// so the default pipeline path is untouched.
func TestAlignRobustMatchesAlignWhenDisabled(t *testing.T) {
	base := texture(48, 48, 19)
	moved := base.Translate(3, -1)
	o := symOptions()
	wantS, wantMI, err := AlignCtx(context.Background(), base, moved, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AlignRobustCtx(context.Background(), base, moved, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shift != wantS || got.MI != wantMI || got.Fallback || got.Widened != 0 {
		t.Errorf("AlignRobustCtx = %+v, want AlignCtx's (%v, %v)", got, wantS, wantMI)
	}
}

// A corrupted slice in the middle of a stack must not drag later slices
// off their frames: its pairs fall back to identity and are flagged.
func TestAlignStackFlagsFallbackSlices(t *testing.T) {
	base := aperiodic(64, 64, 55)
	stack := []*img.Gray{base, aperiodic(64, 64, 77), base.Clone()}
	o := symOptions()
	o.MinConfidence = 0.5
	o.WidenRetries = 1
	aligned, res, err := AlignStackCtx(context.Background(), stack, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback[1] || !res.Fallback[2] {
		t.Errorf("fallback flags = %v, want pairs around the corrupted slice flagged", res.Fallback)
	}
	if res.Fallbacks() != 2 {
		t.Errorf("Fallbacks() = %d, want 2", res.Fallbacks())
	}
	for i, s := range res.Shifts {
		if s != (Shift{}) {
			t.Errorf("slice %d anchored to a garbage shift %v", i, s)
		}
	}
	// Healthy slices pass through untouched.
	for i := range aligned[2].Pix {
		if aligned[2].Pix[i] != stack[2].Pix[i] {
			t.Fatalf("slice 2 was modified despite identity fallback")
		}
	}
}

// A non-finite MinConfidence would silently fail every confidence
// check (NaN compares false, +Inf is never reached) and fall every pair
// back to identity, so it is rejected up front like a negative one.
func TestRobustOptionValidation(t *testing.T) {
	g := texture(40, 40, 1)
	cases := []struct {
		name string
		o    Options
	}{
		{"negative-MinConfidence", Options{MaxShift: 2, Bins: 8, MinConfidence: -1}},
		{"NaN-MinConfidence", Options{MaxShift: 2, Bins: 8, MinConfidence: math.NaN()}},
		{"Inf-MinConfidence", Options{MaxShift: 2, Bins: 8, MinConfidence: math.Inf(1)}},
		{"negative-WidenRetries", Options{MaxShift: 2, Bins: 8, WidenRetries: -1}},
		{"Bins-above-index-range", Options{MaxShift: 2, Bins: maxBins + 1, WidenRetries: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AlignRobustCtx(context.Background(), g, g, tc.o); err == nil {
				t.Errorf("AlignRobust accepted %+v", tc.o)
			}
		})
	}
}

func BenchmarkAlign48(b *testing.B) {
	base := texture(48, 48, 1)
	moved := base.Translate(2, -1)
	o := DefaultOptions()
	o.Workers = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := AlignCtx(context.Background(), base, moved, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlign48Parallel saturates the candidate-shift pool; compare
// against BenchmarkAlign48 for the per-pair speedup.
func BenchmarkAlign48Parallel(b *testing.B) {
	base := texture(48, 48, 1)
	moved := base.Translate(2, -1)
	o := DefaultOptions()
	o.Workers = 0 // NumCPU
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := AlignCtx(context.Background(), base, moved, o); err != nil {
			b.Fatal(err)
		}
	}
}
