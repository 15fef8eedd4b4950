package sem

import (
	"context"
	"math"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/img"
)

func regionVolume(t testing.TB, id string, voxel int64) *chipgen.MatVolume {
	t.Helper()
	r, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID(id)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := chipgen.Voxelize(r.Cell, r.Truth.RegionBounds, voxel)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestOptionsValidation(t *testing.T) {
	cases := map[string]func(*Options){
		"bad detector":   func(o *Options) { o.Detector = "X" },
		"zero dwell":     func(o *Options) { o.DwellUS = 0 },
		"zero step":      func(o *Options) { o.SliceStep = 0 },
		"negative blur":  func(o *Options) { o.BlurSigmaPx = -1 },
		"negative drift": func(o *Options) { o.DriftSigmaPx = -1 },
	}
	for name, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

func TestIntensityDistinguishesMaterials(t *testing.T) {
	for _, det := range []string{"SE", "BSE"} {
		seen := map[float64]chipgen.Material{}
		for m := chipgen.Material(0); int(m) < chipgen.NumMaterials; m++ {
			v := Intensity(det, m)
			if v < 0 || v > 1 {
				t.Errorf("%s/%s: intensity %v out of range", det, m, v)
			}
			if other, dup := seen[v]; dup {
				t.Errorf("%s: %s and %s share intensity %v", det, m, other, v)
			}
			seen[v] = m
		}
	}
	// BSE has wider metal/oxide contrast than SE (atomic number).
	bse := Intensity("BSE", chipgen.MatM1) - Intensity("BSE", chipgen.MatOxide)
	se := Intensity("SE", chipgen.MatM1) - Intensity("SE", chipgen.MatOxide)
	if bse <= se {
		t.Errorf("BSE metal contrast (%v) should exceed SE (%v)", bse, se)
	}
	if Intensity("nope", chipgen.MatM1) != 0 {
		t.Errorf("unknown detector should read 0")
	}
}

func TestRenderCrossSection(t *testing.T) {
	v := regionVolume(t, "B4", 8)
	g, err := RenderCrossSection(v, v.NZ/2, "BSE")
	if err != nil {
		t.Fatal(err)
	}
	if g.W != v.NX || g.H != v.NY {
		t.Fatalf("render dims %dx%d", g.W, g.H)
	}
	s := g.Statistics()
	if s.Max <= s.Min {
		t.Errorf("flat cross section")
	}
	if _, err := RenderCrossSection(v, -1, "BSE"); err == nil {
		t.Errorf("negative slice should error")
	}
}

func TestAcquireStackShapeAndDeterminism(t *testing.T) {
	v := regionVolume(t, "B4", 8)
	o := DefaultOptions()
	o.SliceStep = 2
	a1, err := AcquireStackCtx(context.Background(), v, o)
	if err != nil {
		t.Fatal(err)
	}
	wantSlices := (v.NZ + 1) / 2
	if len(a1.Slices) != wantSlices {
		t.Errorf("slices = %d, want %d", len(a1.Slices), wantSlices)
	}
	if len(a1.SliceZ) != len(a1.Slices) || len(a1.TrueDrift) != len(a1.Slices) {
		t.Errorf("metadata lengths inconsistent")
	}
	a2, err := AcquireStackCtx(context.Background(), v, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Slices {
		m, _ := img.MSE(a1.Slices[i], a2.Slices[i])
		if m != 0 {
			t.Fatalf("acquisition not deterministic at slice %d", i)
		}
	}
	// Different seed differs.
	o.Seed = 99
	a3, _ := AcquireStackCtx(context.Background(), v, o)
	m, _ := img.MSE(a1.Slices[1], a3.Slices[1])
	if m == 0 {
		t.Errorf("different seeds should differ")
	}
}

func TestAcquireValidatesOptions(t *testing.T) {
	v := regionVolume(t, "B4", 16)
	o := DefaultOptions()
	o.Detector = "Z"
	if _, err := AcquireStackCtx(context.Background(), v, o); err == nil {
		t.Errorf("expected validation error")
	}
}

func TestDwellTimeControlsNoise(t *testing.T) {
	v := regionVolume(t, "B4", 8)
	ideal, err := RenderCrossSection(v, 0, "BSE")
	if err != nil {
		t.Fatal(err)
	}
	snr := func(dwell float64) float64 {
		o := DefaultOptions()
		o.DwellUS = dwell
		o.DriftSigmaPx = 0
		o.ChargeSigma = 0
		o.BlurSigmaPx = 0
		a, err := AcquireStackCtx(context.Background(), v, o)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := img.PSNR(ideal, a.Slices[0])
		return p
	}
	low := snr(1)
	high := snr(12)
	if high <= low+3 {
		t.Errorf("higher dwell should raise PSNR markedly: %.1f vs %.1f dB", low, high)
	}
}

func TestDriftAccumulates(t *testing.T) {
	v := regionVolume(t, "B4", 8)
	o := DefaultOptions()
	o.DriftSigmaPx = 1.5
	a, err := AcquireStackCtx(context.Background(), v, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrueDrift[0] != [2]float64{0, 0} {
		t.Errorf("first slice must be the reference frame")
	}
	last := a.TrueDrift[len(a.TrueDrift)-1]
	if math.Hypot(last[0], last[1]) == 0 {
		t.Errorf("drift should accumulate across the stack")
	}
	o.DriftSigmaPx = 0
	a0, _ := AcquireStackCtx(context.Background(), v, o)
	for _, d := range a0.TrueDrift {
		if d != [2]float64{0, 0} {
			t.Errorf("zero drift option produced drift %v", d)
		}
	}
}

func TestCostHoursScalesWithDwell(t *testing.T) {
	v := regionVolume(t, "B4", 16)
	o := DefaultOptions()
	a, err := AcquireStackCtx(context.Background(), v, o)
	if err != nil {
		t.Fatal(err)
	}
	c1 := a.CostHours()
	if c1 <= 0 {
		t.Errorf("cost must be positive")
	}
	o.DwellUS = 6
	a2, _ := AcquireStackCtx(context.Background(), v, o)
	if a2.CostHours() <= c1 {
		t.Errorf("doubling dwell must raise cost")
	}
	if (&Acquisition{}).CostHours() != 0 {
		t.Errorf("empty acquisition costs nothing")
	}
}

func dieVolume(t testing.TB, id string, voxel int64) (*chipgen.MatVolume, *chipgen.Die) {
	t.Helper()
	cfg := chipgen.DefaultConfig(chips.ByID(id))
	d, err := chipgen.GenerateDie(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := chipgen.Voxelize(d.Cell, d.Cell.Bounds(), voxel)
	if err != nil {
		t.Fatal(err)
	}
	return v, d
}

func TestScanZonesFindsStructure(t *testing.T) {
	v, _ := dieVolume(t, "C4", 8)
	zones, err := ScanZones(v, DefaultOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Expect logic, mat, logic, mat (row drivers, MAT, SA, MAT).
	var kinds []string
	for _, z := range zones {
		kinds = append(kinds, z.Kind)
	}
	if len(zones) != 4 {
		t.Fatalf("zones = %v", kinds)
	}
	want := []string{"logic", "mat", "logic", "mat"}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("zone %d = %s, want %s (%v)", i, kinds[i], k, kinds)
		}
	}
}

func TestFindROIMatchesTruth(t *testing.T) {
	for _, id := range []string{"C4", "B5"} {
		voxel := int64(8)
		v, d := dieVolume(t, id, voxel)
		roi, zones, err := FindROI(v, DefaultOptions(), 8)
		if err != nil {
			t.Fatalf("%s: %v (%v)", id, err, zones)
		}
		// The ROI must cover the true SA zone within a stride or two.
		bounds := d.Cell.Bounds()
		trueX0 := int((d.SA[0] - bounds.Min.X) / voxel)
		trueX1 := int((d.SA[1] - bounds.Min.X) / voxel)
		tol := 24
		if abs(roi.X0-trueX0) > tol || abs(roi.X1-trueX1) > tol {
			t.Errorf("%s: ROI [%d,%d), want ~[%d,%d)", id, roi.X0, roi.X1, trueX0, trueX1)
		}
		// The SA logic zone is wider than the row-driver zone (Fig. 6).
		var logicWidths []int
		for _, z := range zones {
			if z.Kind == "logic" {
				logicWidths = append(logicWidths, z.WidthVox())
			}
		}
		if len(logicWidths) < 2 {
			t.Fatalf("%s: expected two logic zones, got %v", id, zones)
		}
		if roi.WidthVox() <= logicWidths[0] && roi.X0 != zones[0].X0 {
			t.Errorf("%s: ROI should be the widest logic zone", id)
		}
	}
}

func TestScanZonesValidation(t *testing.T) {
	v := regionVolume(t, "B4", 16)
	if _, err := ScanZones(v, DefaultOptions(), 0); err == nil {
		t.Errorf("zero stride should error")
	}
	o := DefaultOptions()
	o.DwellUS = -1
	if _, err := ScanZones(v, o, 8); err == nil {
		t.Errorf("invalid options should error")
	}
}

func TestSplit1D(t *testing.T) {
	thr, err := split1D([]float64{0.1, 0.12, 0.5, 0.52})
	if err != nil {
		t.Fatal(err)
	}
	if thr < 0.12 || thr > 0.5 {
		t.Errorf("threshold %v not between clusters", thr)
	}
	if _, err := split1D([]float64{1}); err == nil {
		t.Errorf("single value should error")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func BenchmarkAcquireStack(b *testing.B) {
	v := regionVolume(b, "B4", 16)
	o := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AcquireStackCtx(context.Background(), v, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindROI(b *testing.B) {
	v, _ := dieVolume(b, "C4", 16)
	o := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := FindROI(v, o, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlanDwellInvertsNoiseModel(t *testing.T) {
	for _, target := range []float64{0.05, 0.025, 0.01} {
		dwell, err := PlanDwell(target)
		if err != nil {
			t.Fatal(err)
		}
		if got := NoiseSigma(dwell); math.Abs(got-target) > 1e-12 {
			t.Errorf("target %v: planned dwell %v yields sigma %v", target, dwell, got)
		}
	}
	if _, err := PlanDwell(0); err == nil {
		t.Errorf("zero target should fail")
	}
}

func TestPlanCostHours(t *testing.T) {
	// Halving the noise quadruples the dwell and (asymptotically) the
	// pixel time.
	d1, h1, err := PlanCostHours(2000, 2000, 1000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	d2, h2, err := PlanCostHours(2000, 2000, 1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2/d1-4) > 1e-9 {
		t.Errorf("dwell ratio %v, want 4", d2/d1)
	}
	if h2 <= h1 {
		t.Errorf("lower noise must cost more hours")
	}
	// The paper's scale: a 100 um^2 volumetric scan takes >24 h; a
	// comparable plan lands in the tens of hours.
	_, h, err := PlanCostHours(5000, 5000, 1000, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	if h < 24 || h > 200 {
		t.Errorf("large-scan plan %v h, want tens of hours", h)
	}
	if _, _, err := PlanCostHours(0, 1, 1, 0.05); err == nil {
		t.Errorf("zero dims should fail")
	}
}
