package core

// Ablation benchmarks for the pipeline's design choices, mirroring the
// paper's acquisition-parameter discussion (Section IV: dwell time trades
// noise against imaging cost; denoising and alignment are prerequisites
// for usable planar views). Each sub-benchmark reports the extraction
// fidelity so a -bench run doubles as the ablation table.

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/chips"
)

func runOnce(b *testing.B, o Options) (errPct, costH, topoOK float64) {
	b.Helper()
	res, err := RunCtx(context.Background(), chips.ByID("B4"), o)
	if err != nil {
		// A failed extraction is a data point, not a broken bench.
		return 100, 0, 0
	}
	ok := 0.0
	if res.Score.TopologyCorrect && len(res.Score.MissingElements) == 0 {
		ok = 1
	}
	return 100 * res.Score.MeanRelErr, res.CostHours, ok
}

func ablationOptions() Options {
	o := DefaultOptions()
	o.VoxelNM = 8
	o.Denoise.Iterations = 25
	return o
}

// BenchmarkAblationDwell sweeps the SEM dwell time: longer dwell lowers
// noise (and dimension error) but raises acquisition cost linearly.
func BenchmarkAblationDwell(b *testing.B) {
	for _, dwell := range []float64{1.5, 3, 6, 12} {
		b.Run(benchName("dwell_us", dwell), func(b *testing.B) {
			o := ablationOptions()
			o.SEM.DwellUS = dwell
			var errPct, cost, ok float64
			for i := 0; i < b.N; i++ {
				errPct, cost, ok = runOnce(b, o)
			}
			b.ReportMetric(errPct, "dim_err_pct")
			b.ReportMetric(cost, "sim_cost_h")
			b.ReportMetric(ok, "extraction_ok")
		})
	}
}

// BenchmarkAblationDenoiser compares the two TV algorithms the paper
// names against no denoising, at the default (noisy) dwell time, with
// the pipeline's fidelity weight λ=25 and (the "_lambda_8" arms) the
// denoise package's default λ=8.
func BenchmarkAblationDenoiser(b *testing.B) {
	arms := []struct {
		name, denoiser string
		lambda         float64
	}{
		{"none", "none", 25},
		{"chambolle", "chambolle", 25},
		{"split-bregman", "split-bregman", 25},
		{"chambolle_lambda_8", "chambolle", 8},
		{"split-bregman_lambda_8", "split-bregman", 8},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			o := ablationOptions()
			o.SEM.DwellUS = 3
			o.Denoiser = arm.denoiser
			o.Denoise.Lambda = arm.lambda
			var errPct, ok float64
			for i := 0; i < b.N; i++ {
				errPct, _, ok = runOnce(b, o)
			}
			b.ReportMetric(errPct, "dim_err_pct")
			b.ReportMetric(ok, "extraction_ok")
		})
	}
}

// BenchmarkAblationAlignment disables the mutual-information alignment
// under stage drift: the planar views scramble and extraction degrades.
func BenchmarkAblationAlignment(b *testing.B) {
	for _, aligned := range []bool{true, false} {
		name := "aligned"
		if !aligned {
			name = "unaligned"
		}
		b.Run(name, func(b *testing.B) {
			o := ablationOptions()
			o.SEM.DwellUS = 12
			o.SEM.DriftSigmaPx = 0.8
			if !aligned {
				o.Register.MaxShift = 0
			}
			var errPct, ok float64
			for i := 0; i < b.N; i++ {
				errPct, _, ok = runOnce(b, o)
			}
			b.ReportMetric(errPct, "dim_err_pct")
			b.ReportMetric(ok, "extraction_ok")
		})
	}
}

func benchName(prefix string, v float64) string {
	if v == float64(int(v)) {
		return prefix + "_" + strconv.Itoa(int(v))
	}
	return prefix + "_" + strconv.Itoa(int(v*10)) + "e-1"
}
