package core

// Ablation benchmarks for the pipeline's design choices, mirroring the
// paper's acquisition-parameter discussion (Section IV: dwell time trades
// noise against imaging cost; denoising and alignment are prerequisites
// for usable planar views). Each sub-benchmark reports the extraction
// fidelity so a -bench run doubles as the ablation table.

import (
	"context"
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
// names against no denoising, at the default (noisy) dwell time.
func BenchmarkAblationDenoiser(b *testing.B) {
	for _, den := range []string{"none", "chambolle", "split-bregman"} {
		b.Run(den, func(b *testing.B) {
			o := ablationOptions()
			o.SEM.DwellUS = 3
			o.Denoiser = den
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
		return prefix + "_" + itoa(int(v))
	}
	return prefix + "_" + itoa(int(v*10)) + "e-1"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
