// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md §4 for the
// experiment index). Each benchmark reports its headline quantities as
// custom metrics so a -bench run reads as the paper's result set, and
// fails if the reproduced shape deviates from the published one.
package repro

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/denoise"
	"repro/internal/dram"
	"repro/internal/gds"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/layout"
	"repro/internal/measure"
	"repro/internal/netex"
	"repro/internal/obs"
	"repro/internal/papers"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/report"
	"repro/internal/sa"
	"repro/internal/sem"
)

// E1 — Table I: the studied-chips table.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.TableI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	cs := chips.All()
	ocsa := 0
	for _, c := range cs {
		if c.Topology == chips.OCSA {
			ocsa++
		}
	}
	b.ReportMetric(float64(len(cs)), "chips")
	b.ReportMetric(float64(ocsa), "ocsa_chips")
	if ocsa != 3 {
		b.Fatalf("OCSA chips = %d, want 3 (A4, A5, B5)", ocsa)
	}
}

// E2 — Fig. 2c: classic SA activation events via analog simulation.
func BenchmarkFig2Events(b *testing.B) {
	p := circuit.DefaultParams()
	var res *sa.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sa.Simulate(chips.Classic, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, ev := range res.Events {
		if !ev.Observed {
			b.Fatalf("classic event %s not observed", ev.Name)
		}
	}
	b.ReportMetric(float64(len(res.Events)), "events")
	b.ReportMetric(res.SignalMV, "signal_mV")
}

// E3 — Fig. 9b: OCSA activation events (offset cancellation and
// pre-sensing precede restore).
func BenchmarkFig9Events(b *testing.B) {
	p := circuit.DefaultParams()
	var res *sa.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sa.Simulate(chips.OCSA, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Events[0].Name != sa.EvOffsetCancel {
		b.Fatalf("first OCSA event %s, want offset cancellation", res.Events[0].Name)
	}
	b.ReportMetric(float64(len(res.Events)), "events")
	// The offset-tolerance gap is the figure's physical message.
	tolC, err := sa.OffsetTolerance(chips.Classic, p, 0.3, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	tolO, err := sa.OffsetTolerance(chips.OCSA, p, 0.3, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(1000*tolC, "classic_tolerance_mV")
	b.ReportMetric(1000*tolO, "ocsa_tolerance_mV")
	if tolO < 2*tolC {
		b.Fatalf("OCSA tolerance must far exceed classic: %.0f vs %.0f mV", 1000*tolO, 1000*tolC)
	}
}

// E4 — Figs. 3/5/6: blind ROI identification on a die strip.
func BenchmarkROIIdentification(b *testing.B) {
	die, err := chipgen.GenerateDie(chipgen.DefaultConfig(chips.ByID("C4")))
	if err != nil {
		b.Fatal(err)
	}
	vol, err := chipgen.Voxelize(die.Cell, die.Cell.Bounds(), 8)
	if err != nil {
		b.Fatal(err)
	}
	opts := sem.DefaultOptions()
	var roi sem.Zone
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roi, _, err = sem.FindROI(vol, opts, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	trueW := float64(die.SA[1] - die.SA[0])
	gotW := float64(roi.WidthVox() * 8)
	b.ReportMetric(gotW/trueW, "roi_width_ratio")
	if math.Abs(gotW/trueW-1) > 0.1 {
		b.Fatalf("ROI width %0.f nm vs truth %.0f nm", gotW, trueW)
	}
}

// setupReconstruction builds the noisy B4 acquisition the E5
// reconstruction benchmarks replay.
func setupReconstruction(b *testing.B) (*sem.Acquisition, geom.Rect, core.Options) {
	b.Helper()
	chip := chips.ByID("B4")
	o := core.DefaultOptions()
	o.VoxelNM = 8
	o.SEM.DwellUS = 12
	o.SEM.Detector = chip.Detector
	region, err := chipgen.Generate(chipgen.DefaultConfig(chip))
	if err != nil {
		b.Fatal(err)
	}
	window := region.Cell.Bounds()
	vol, err := chipgen.Voxelize(region.Cell, window, o.VoxelNM)
	if err != nil {
		b.Fatal(err)
	}
	acq, err := sem.AcquireStackCtx(context.Background(), vol, o.SEM)
	if err != nil {
		b.Fatal(err)
	}
	return acq, window, o
}

// benchReconstruction runs E5 with the given worker-pool size.
func benchReconstruction(b *testing.B, workers int) {
	acq, window, o := setupReconstruction(b)
	o.Workers = workers
	o.Pool = img.NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	var plan *netex.Plan
	var err error
	for i := 0; i < b.N; i++ {
		plan, _, err = core.ReconstructCtx(context.Background(), acq, window, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ext, err := netex.Extract(plan)
	if err != nil {
		b.Fatal(err)
	}
	if ext.Topology != chips.Classic {
		b.Fatalf("reconstruction lost the topology")
	}
	b.ReportMetric(float64(len(acq.Slices)), "slices")
	b.ReportMetric(float64(par.Count(workers)), "workers")
}

// E5 — Figs. 7/8: full reconstruction (denoise, align, reslice, segment)
// through the noisy acquisition, on the coarsest chip. Runs with the
// default worker pool (every core).
func BenchmarkReconstruction(b *testing.B) {
	benchReconstruction(b, 0)
}

// E5a — the sequential baseline: the same reconstruction pinned to one
// worker. The plan output is byte-identical to the parallel runs.
func BenchmarkReconstructionSerial(b *testing.B) {
	benchReconstruction(b, 1)
}

// E5b — the saturated worker pool, the speedup probe for the concurrency
// layer (compare against BenchmarkReconstructionSerial). On a 1-CPU host
// runtime.NumCPU() == 1, so this reports workers=1 and its timings
// match the Serial benchmark — that equality is correct, not a
// regression; compare the two only where workers differ.
func BenchmarkReconstructionParallel(b *testing.B) {
	benchReconstruction(b, runtime.NumCPU())
}

// benchAlignStack runs the E5c alignment benchmarks: the MI stack
// alignment alone (the reconstruction hot path the allocation-free
// kernel and the pyramid search optimize), on the same B4 acquisition
// the E5 benchmarks replay.
func benchAlignStack(b *testing.B, workers, pyramid int) {
	acq, _, _ := setupReconstruction(b)
	ro := register.DefaultOptions()
	ro.Workers = workers
	ro.Pyramid = pyramid
	b.ReportAllocs()
	b.ResetTimer()
	var res register.StackResult
	var err error
	for i := 0; i < b.N; i++ {
		_, res, err = register.AlignStackCtx(context.Background(), acq.Slices, ro)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(res.Shifts) != len(acq.Slices) {
		b.Fatalf("alignment lost slices: %d shifts for %d slices", len(res.Shifts), len(acq.Slices))
	}
	b.ReportMetric(float64(len(acq.Slices)), "slices")
	b.ReportMetric(float64(par.Count(workers)), "workers")
}

// E5c — one MI pair alignment (the unit of work every stack pass
// repeats), single worker.
func BenchmarkAlignPair(b *testing.B) {
	acq, _, _ := setupReconstruction(b)
	ro := register.DefaultOptions()
	ro.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := register.AlignCtx(context.Background(), acq.Slices[0], acq.Slices[1], ro); err != nil {
			b.Fatal(err)
		}
	}
}

// E5c' — the MI pair at production geometry: consecutive denoised
// slices of B4 at the default 4 nm voxel (1857x39 px), imaged at the
// 12 us dwell extract uses, under the pipeline's default register
// options (the 9x5 window, 45 candidates, with its widening checks),
// single worker — the per-pair step the streaming reconstruction
// repeats for every slice. How often the MI histogram takes its run
// form depends on the slice: `top` aligns stack slices 0 and 1 (binned
// runs average 76 px; every candidate row takes it), `mid` aligns
// slices 40, 96 and 150 each with its successor (6.6 to 16 px; 37 to
// 94% of the rows take it).
// Each op aligns every pair of its set; ns/eval is the time per MI
// candidate evaluation (register.mi_evals).
func BenchmarkAlignPairB4(b *testing.B) {
	o := core.DefaultOptions()
	o.SEM.DwellUS = 12
	for _, bc := range []struct {
		name  string
		first []int
	}{{"top", []int{0}}, {"mid", []int{40, 96, 150}}} {
		b.Run(bc.name, func(b *testing.B) {
			var idx []int
			for _, i := range bc.first {
				idx = append(idx, i, i+1)
			}
			slices := b4Slices(b, o, idx...)
			for i, g := range slices {
				d, err := denoise.ChambolleCtx(context.Background(), g, o.Denoise)
				if err != nil {
					b.Fatal(err)
				}
				slices[i] = d
			}
			ro := o.Register
			ro.Workers = 1
			ob := &obs.Observer{Metrics: obs.NewMetrics()}
			ro.Obs = ob
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := 0; p < len(slices); p += 2 {
					if _, err := register.AlignRobustCtx(context.Background(), slices[p], slices[p+1], ro); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			evals := float64(ob.Snapshot().Counters["register.mi_evals"])
			b.ReportMetric(evals/float64(b.N), "evals/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/evals, "ns/eval")
		})
	}
}

// E5i — the residual drift at production geometry: register.
// ResidualDriftCtx over 16 consecutive aligned pairs of B4 (slices 40 to
// 56, denoised with the pipeline's settings and aligned as a stack) at
// the 12 us dwell extract uses, one worker. Pairs 1 and 9 take the full
// search (the sampled pairs), the others the ±1 search unless it
// escalates; ns/pair and evals/pair report the mix.
func BenchmarkResidualB4(b *testing.B) {
	o := core.DefaultOptions()
	o.SEM.DwellUS = 12
	var idx []int
	for i := 40; i <= 56; i++ {
		idx = append(idx, i)
	}
	slices := b4Slices(b, o, idx...)
	for i, g := range slices {
		d, err := denoise.ChambolleCtx(context.Background(), g, o.Denoise)
		if err != nil {
			b.Fatal(err)
		}
		slices[i] = d
	}
	ro := o.Register
	ro.Workers = 1
	aligned, _, err := register.AlignStackCtx(context.Background(), slices, ro)
	if err != nil {
		b.Fatal(err)
	}
	ob := &obs.Observer{Metrics: obs.NewMetrics()}
	ro.Obs = ob
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := register.ResidualDriftCtx(context.Background(), aligned, ro); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pairs := float64(b.N * (len(aligned) - 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
	b.ReportMetric(float64(ob.Snapshot().Counters["register.mi_evals"])/pairs, "evals/pair")
}

// E5h — the TV sweep at production geometry: ChambolleInto with the
// pipeline's denoise settings (lambda 25, 60 iterations, Tol 1e-5) and a
// warm Scratch, as a streaming worker runs it, over six raw B4 slices
// (1857x39 px, every 32nd of the 192) imaged at the 12 us dwell that
// extract uses. Each op denoises one slice, cycling through the six.
// At this dwell most dual steps have |p| < 1 and skip the projection's
// division, so the number follows the sweep's loop structure, not the
// divider; iters/op reports the iterations actually run.
func BenchmarkChambolleSlice(b *testing.B) {
	o := core.DefaultOptions()
	o.SEM.DwellUS = 12
	slices := b4Slices(b, o, 0, 32, 64, 96, 128, 160)
	dst := img.New(slices[0].W, slices[0].H)
	m := obs.NewMetrics()
	do := o.Denoise
	do.Obs = &obs.Observer{Metrics: m}
	s := &denoise.Scratch{}
	for _, f := range slices {
		if err := denoise.ChambolleInto(context.Background(), dst, f, do, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := denoise.ChambolleInto(context.Background(), dst, slices[i%len(slices)], do, s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c := m.Snapshot().Counters
	b.ReportMetric(float64(c["denoise.iterations"])/float64(c["denoise.slices"]), "iters/op")
}

// b4Slices streams chip B4's region as the pipeline images it (o's
// units, voxel and SEM settings, the chip's detector) and returns the raw
// slices at the given ascending stack indices.
func b4Slices(b *testing.B, o core.Options, idx ...int) []*img.Gray {
	b.Helper()
	chip := chips.ByID("B4")
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	region, err := chipgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	planes, err := chipgen.NewPlaneSource(region.Cell, region.Cell.Bounds(), o.VoxelNM)
	if err != nil {
		b.Fatal(err)
	}
	o.SEM.Detector = chip.Detector
	var out []*img.Gray
	errDone := errors.New("slices acquired")
	err = sem.StreamStackCtx(context.Background(), planes, o.SEM, func(i, _ int, g *img.Gray, _ [2]float64) error {
		if i != idx[len(out)] {
			return nil
		}
		if out = append(out, g); len(out) == len(idx) {
			return errDone
		}
		return nil
	})
	if err != errDone {
		b.Fatalf("acquiring B4 slices %v: %v", idx, err)
	}
	return out
}

// E5g — the reslice median at production geometry: the radius-1
// median filter that precedes segmentation, over the 7 raw planar views
// (Result.Views) of one default B4 extraction, single goroutine.
func BenchmarkResliceB4(b *testing.B) {
	res, err := core.RunCtx(context.Background(), chips.ByID("B4"), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range res.Views {
			img.MedianFilter(v, 1)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.Views)), "views/op")
}

// E5d — sequential exhaustive stack alignment: the headline number for
// the allocation-free kernel.
func BenchmarkAlignStack(b *testing.B) {
	benchAlignStack(b, 1, 0)
}

// E5e — the same with the default worker pool.
func BenchmarkAlignStackParallel(b *testing.B) {
	benchAlignStack(b, 0, 0)
}

// E5f — sequential coarse-to-fine stack alignment (-pyramid 3): the
// algorithmic speedup on top of the kernel one.
func BenchmarkAlignPyramid(b *testing.B) {
	benchAlignStack(b, 1, 3)
}

// E6 — Fig. 10 and the GDSII release: layout extraction and export.
func BenchmarkLayoutExtraction(b *testing.B) {
	region, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID("A5")))
	if err != nil {
		b.Fatal(err)
	}
	var n int
	for i := 0; i < b.N; i++ {
		s, err := gds.FromCell(region.Cell)
		if err != nil {
			b.Fatal(err)
		}
		lib := gds.NewLibrary("BENCH")
		lib.Structs = []gds.Structure{s}
		cw := &countWriter{}
		if err := lib.Write(cw); err != nil {
			b.Fatal(err)
		}
		n = cw.n
	}
	b.ReportMetric(float64(n), "gds_bytes")
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// E7 — Section V-A: topology discovery on all six chips from geometry.
func BenchmarkTopologyDiscovery(b *testing.B) {
	plans := make(map[string]*netex.Plan)
	for _, c := range chips.All() {
		region, err := chipgen.Generate(chipgen.DefaultConfig(c))
		if err != nil {
			b.Fatal(err)
		}
		plans[c.ID] = netex.FromCell(region.Cell)
	}
	b.ResetTimer()
	correct := 0
	for i := 0; i < b.N; i++ {
		correct = 0
		for _, c := range chips.All() {
			res, err := netex.Extract(plans[c.ID])
			if err != nil {
				b.Fatal(err)
			}
			if res.Topology == c.Topology {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct), "topologies_correct_of_6")
	if correct != 6 {
		b.Fatalf("topology discovery failed on %d chips", 6-correct)
	}
}

// E8 — Fig. 11: the latch transistor size series.
func BenchmarkFig11(b *testing.B) {
	var pts []analysis.Fig11Point
	for i := 0; i < b.N; i++ {
		pts = analysis.Fig11()
	}
	b.ReportMetric(float64(len(pts)), "points")
	if len(pts) != 14 {
		b.Fatalf("points = %d, want 14", len(pts))
	}
}

// E9 — Fig. 12: model inaccuracies (headline: up to ~9x).
func BenchmarkFig12(b *testing.B) {
	var worst analysis.Inaccuracy
	for i := 0; i < b.N; i++ {
		worst = analysis.WorstModelInaccuracy()
	}
	b.ReportMetric(worst.Error, "worst_model_inaccuracy_x")
	if worst.Chip != "C4" || worst.Element != chips.Precharge {
		b.Fatalf("worst inaccuracy at %s/%s, want C4 precharge", worst.Chip, worst.Element)
	}
}

// E10 — Table II: the 13-paper overhead audit (headline: up to 175x).
func BenchmarkTableII(b *testing.B) {
	var rows []papers.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = papers.TableII()
	}
	var worst float64
	for _, r := range rows {
		if r.ErrorKnown && r.Error > worst {
			worst = r.Error
		}
	}
	b.ReportMetric(worst, "worst_overhead_error_x")
	b.ReportMetric(float64(len(rows)), "papers")
	if worst < 150 || worst > 200 {
		b.Fatalf("worst error %.0fx, want ~175x", worst)
	}
}

// E11 — Fig. 14: per-vendor costs for the <10x papers.
func BenchmarkFig14(b *testing.B) {
	var pts []papers.Fig14Point
	for i := 0; i < b.N; i++ {
		pts = papers.Fig14(10)
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Paper] = true
	}
	b.ReportMetric(float64(len(seen)), "papers_under_cutoff")
	if seen["CoolDRAM"] {
		b.Fatalf("CoolDRAM must be omitted (always > 10x)")
	}
}

// E12 — Fig. 13 / I1-I2: a minimum-pitch bitline array is DRC-clean yet
// has no free space for an extra bitline.
func BenchmarkFreeSpaceDRC(b *testing.B) {
	region, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID("C4")))
	if err != nil {
		b.Fatal(err)
	}
	rules := layout.DefaultRules(int64(chips.ByID("C4").FeatureNM))
	var shapes []layout.Shape
	for _, s := range region.Cell.Shapes {
		if s.Layer == layout.LayerM1 && s.Role == "bitline" {
			shapes = append(shapes, s)
		}
	}
	// Window across the bitline pitch inside the transition band, where
	// only bitlines run.
	window := geom.R(50, 0, 250, region.Truth.RegionBounds.H())
	rot := make([]layout.Shape, len(shapes))
	for i, s := range shapes {
		// FreeSpace scans along X; bitlines run along X, so rotate the
		// question: swap axes to probe the across-bitline direction.
		rot[i] = layout.Shape{Layer: s.Layer, Net: s.Net,
			Rect: geom.R(s.Rect.Min.Y, s.Rect.Min.X, s.Rect.Max.Y, s.Rect.Max.X)}
	}
	windowRot := geom.R(window.Min.Y, window.Min.X, window.Max.Y, window.Max.X)
	var can bool
	for i := 0; i < b.N; i++ {
		can = layout.CanInsertWire(rot, layout.LayerM1, windowRot, rules)
	}
	if can {
		b.Fatalf("minimum-pitch bitline array must reject an extra bitline (I1/I2)")
	}
	b.ReportMetric(0, "free_bitline_slots")
}

// E13 — Appendix A: the bitline-shrink equation on B5.
func BenchmarkAppendixA(b *testing.B) {
	var bs analysis.BitlineShrink
	for i := 0; i < b.N; i++ {
		bs = analysis.NewBitlineShrink(chips.ByID("B5"))
	}
	ext := bs.RegionExtension()
	ov := bs.ChipOverhead()
	b.ReportMetric(100*ext, "region_extension_pct")
	b.ReportMetric(100*ov, "chip_overhead_pct")
	if math.Abs(ext-1.0/3) > 1e-9 || math.Abs(ov-0.21) > 0.02 {
		b.Fatalf("Appendix A: ext %.3f (want 0.333), overhead %.3f (want ~0.21)", ext, ov)
	}
}

// E14 — Section VI-D: out-of-spec behaviour differs between topologies.
func BenchmarkOutOfSpec(b *testing.B) {
	copies := map[chips.Topology]bool{}
	for i := 0; i < b.N; i++ {
		for _, topo := range []chips.Topology{chips.Classic, chips.OCSA} {
			bank, err := dram.NewBank(dram.DefaultConfig(topo))
			if err != nil {
				b.Fatal(err)
			}
			src := make([]bool, bank.Config().Cols)
			for j := range src {
				src[j] = j%2 == 0
			}
			if err := bank.SetRow(1, src); err != nil {
				b.Fatal(err)
			}
			if err := bank.Activate(1); err != nil {
				b.Fatal(err)
			}
			if err := bank.ActivateNoPrecharge(2); err != nil {
				b.Fatal(err)
			}
			if err := bank.Precharge(); err != nil {
				b.Fatal(err)
			}
			row2, err := bank.ReadRow(2)
			if err != nil {
				b.Fatal(err)
			}
			copied := true
			for j := range src {
				if row2[j] != src[j] {
					copied = false
					break
				}
			}
			copies[topo] = copied
		}
	}
	if !copies[chips.Classic] || copies[chips.OCSA] {
		b.Fatalf("row-copy outcome wrong: classic %v (want true), OCSA %v (want false)",
			copies[chips.Classic], copies[chips.OCSA])
	}
	b.ReportMetric(1, "classic_row_copy")
	b.ReportMetric(0, "ocsa_row_copy")
}

// E15 — Section V-B: the repeated-measurement campaign across all chips.
func BenchmarkMeasurements(b *testing.B) {
	var results []*netex.Result
	for _, c := range chips.All() {
		cfg := chipgen.DefaultConfig(c)
		cfg.Units = 3 // larger regions, more instances per element
		region, err := chipgen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := netex.Extract(netex.FromCell(region.Cell))
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, res := range results {
			total += measure.TotalMeasurements(measure.FromTransistors(res.Transistors))
		}
	}
	// The paper performed 835 size measurements across the six chips;
	// our campaign is the same order of magnitude.
	b.ReportMetric(float64(total), "size_measurements")
	if total < 500 {
		b.Fatalf("measurements = %d, want several hundred", total)
	}
}

// E16 — the complete Fig. 5 workflow: blind ROI identification on a full
// die strip followed by acquisition and extraction of the ROI only.
func BenchmarkDieFlow(b *testing.B) {
	o := core.DefaultOptions()
	o.VoxelNM = 8
	o.SEM.DwellUS = 12
	o.Denoise.Iterations = 25
	var res *core.DieResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunOnDieCtx(context.Background(), chips.ByID("B4"), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ROIOverlap, "roi_iou")
	b.ReportMetric(b2f(res.Pipeline.Score.TopologyCorrect), "topology_correct")
	b.ReportMetric(100*res.Pipeline.Score.MeanRelErr, "dim_err_pct")
	if res.ROIOverlap < 0.9 || !res.Pipeline.Score.TopologyCorrect {
		b.Fatalf("die flow failed: IoU %.2f, %s", res.ROIOverlap, res.Pipeline.Score.Summary())
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
