package core

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/img"
	"repro/internal/obs"
)

func TestRunValidation(t *testing.T) {
	if _, err := RunCtx(context.Background(), nil, DefaultOptions()); err == nil {
		t.Errorf("nil chip should error")
	}
	o := DefaultOptions()
	o.Units = 0
	if _, err := RunCtx(context.Background(), chips.ByID("B4"), o); err == nil {
		t.Errorf("zero units should error")
	}
	o = DefaultOptions()
	o.Denoiser = "bogus"
	if _, err := RunCtx(context.Background(), chips.ByID("B4"), o); err == nil {
		t.Errorf("unknown denoiser should error")
	}
}

// fastOptions lowers the acquisition cost for unit tests: coarser voxels,
// thicker slices, gentler artifacts.
func fastOptions() Options {
	o := DefaultOptions()
	o.VoxelNM = 8
	o.SEM.DriftSigmaPx = 0.4
	o.SEM.DwellUS = 12 // clean acquisition
	o.Denoise.Iterations = 25
	return o
}

func TestPipelineEndToEndClassic(t *testing.T) {
	chip := chips.ByID("B4") // coarsest features: most robust under noise
	res, err := RunCtx(context.Background(), chip, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Score.TopologyCorrect {
		t.Errorf("topology not recovered: got %v", res.Extraction.Topology)
	}
	if !res.Score.BitlinesCorrect {
		t.Errorf("bitlines: got %d, want %d", res.Extraction.Bitlines, res.Truth.Bitlines)
	}
	if res.Score.MeanRelErr > 0.25 {
		t.Errorf("mean dimension error %.1f%% too high: %s",
			100*res.Score.MeanRelErr, res.Score.Summary())
	}
	if res.SliceCount == 0 || res.CostHours <= 0 {
		t.Errorf("acquisition metadata missing")
	}
	if res.ResidualDriftPx > 1.0 {
		t.Errorf("alignment residual %.2f px too high", res.ResidualDriftPx)
	}
}

func TestPipelineEndToEndOCSA(t *testing.T) {
	chip := chips.ByID("B5")
	// B5's isolation gates are 16 nm long; they need the fine voxel
	// grid to survive segmentation.
	o := fastOptions()
	o.VoxelNM = 4
	res, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extraction.Topology != chips.OCSA {
		t.Errorf("OCSA not recovered on B5: %s", res.Score.Summary())
	}
	by := res.Extraction.ByElement()
	for _, e := range []chips.Element{chips.Isolation, chips.OffsetCancel, chips.Precharge} {
		if len(by[e]) == 0 {
			t.Errorf("element %s not recovered", e)
		}
	}
}

func TestPipelineNoNoiseIsNearPerfect(t *testing.T) {
	o := fastOptions()
	o.VoxelNM = 4
	o.SEM.DwellUS = 1000
	o.SEM.DriftSigmaPx = 0
	o.SEM.ChargeSigma = 0
	o.SEM.BlurSigmaPx = 0
	o.Denoiser = "none"
	o.Register.MaxShift = 0
	res, err := RunCtx(context.Background(), chips.ByID("C4"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Score.TopologyCorrect || !res.Score.BitlinesCorrect {
		t.Errorf("clean pipeline failed: %s", res.Score.Summary())
	}
	if res.Score.MeanRelErr > 0.12 {
		t.Errorf("clean-path dimension error %.1f%% exceeds quantization budget",
			100*res.Score.MeanRelErr)
	}
	if len(res.Score.MissingElements) > 0 {
		t.Errorf("missing elements: %v", res.Score.MissingElements)
	}
}

func TestPipelineSplitBregmanPath(t *testing.T) {
	o := fastOptions()
	o.Denoiser = "split-bregman"
	res, err := RunCtx(context.Background(), chips.ByID("B4"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Score.TopologyCorrect {
		t.Errorf("split-bregman path failed: %s", res.Score.Summary())
	}
}

func TestMeasurementCountScales(t *testing.T) {
	res, err := RunCtx(context.Background(), chips.ByID("B4"), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range res.Stats {
		n += s.W.N + s.L.N
	}
	if n < 2*res.Truth.TransistorCount*8/10 {
		t.Errorf("measurements = %d, want close to %d", n, 2*res.Truth.TransistorCount)
	}
}

// flatField must stay well-defined on slices far below the nominal
// 1024-pixel sample: the strided sample always holds at least
// min(len(Pix), 64) values, and every pixel shifts by exactly the 10th
// intensity percentile.
func TestFlatFieldTinyImages(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {2, 2}, {5, 3}, {8, 8}, {40, 2}} {
		g := img.New(dim[0], dim[1])
		for i := range g.Pix {
			g.Pix[i] = 0.25 + 0.01*float64(i%13)
		}
		sorted := append([]float64(nil), g.Pix...)
		sort.Float64s(sorted)
		p10 := sorted[len(sorted)/10]
		orig := append([]float64(nil), g.Pix...)
		flatField(g)
		for i := range g.Pix {
			if math.Abs(g.Pix[i]-(orig[i]-p10)) > 1e-15 {
				t.Fatalf("%dx%d: pixel %d = %v, want %v (p10 %v)",
					dim[0], dim[1], i, g.Pix[i], orig[i]-p10, p10)
			}
		}
	}
	// A zero-pixel image must be a no-op, not an index panic.
	flatField(&img.Gray{})
}

func TestPipelineWithProcessVariation(t *testing.T) {
	// The full noisy pipeline tolerates per-instance dimension jitter:
	// topology still recovered, measured means near nominal.
	o := fastOptions()
	o.JitterPct = 4
	o.JitterSeed = 5
	res, err := RunCtx(context.Background(), chips.ByID("B4"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Score.TopologyCorrect {
		t.Errorf("variation broke topology recovery: %s", res.Score.Summary())
	}
	if res.Score.MeanRelErr > 0.3 {
		t.Errorf("variation run error %.1f%%", 100*res.Score.MeanRelErr)
	}
}

// TestOptionsKnobCount pins the number of independently settable values
// in Options: every exported leaf field, recursing into struct and
// pointer-to-struct fields, with the runtime handles (observer,
// checkpoint store, image pool) counting one each. Each settable value
// multiplies the configurations tests and benchmarks must cover, so a
// new option changes this pin together with the reason two callers need
// different values.
func TestOptionsKnobCount(t *testing.T) {
	handles := map[reflect.Type]bool{
		reflect.TypeOf((*obs.Observer)(nil)): true,
		reflect.TypeOf((*ckpt.Store)(nil)):   true,
		reflect.TypeOf((*img.Pool)(nil)):     true,
	}
	var count func(reflect.Type) int
	count = func(typ reflect.Type) int {
		if handles[typ] {
			return 1
		}
		if typ.Kind() == reflect.Pointer && typ.Elem().Kind() == reflect.Struct {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return 1
		}
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				n += count(f.Type)
			}
		}
		return n
	}
	const want = 36
	if got := count(reflect.TypeOf(Options{})); got != want {
		t.Errorf("Options has %d settable values, want %d", got, want)
	}
}
