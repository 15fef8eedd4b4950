// Package core orchestrates the end-to-end HiFi-DRAM pipeline: ground
// truth generation, FIB/SEM acquisition, post-processing (denoise, align,
// reslice to planar views), segmentation, circuit extraction, measurement
// and fidelity scoring — the complete path of Figs. 3 and 5-8.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/denoise"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/layout"
	"repro/internal/measure"
	"repro/internal/netex"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/segment"
	"repro/internal/sem"
	"repro/internal/volume"
)

// Options configures a pipeline run.
type Options struct {
	// Units sizes the generated region (SA units per band).
	Units int
	// VoxelNM is the voxelization resolution.
	VoxelNM int64
	// SEM configures the microscope simulation.
	SEM sem.Options
	// Denoiser selects the TV algorithm: "chambolle", "split-bregman"
	// or "none".
	Denoiser string
	// Denoise parameterizes it.
	Denoise denoise.Options
	// Register parameterizes the slice alignment.
	Register register.Options
	// JitterPct/JitterSeed add process variation to the generated
	// ground truth (see chipgen.Config).
	JitterPct  float64
	JitterSeed int64
	// Faults, when non-nil, deterministically corrupts the acquisition
	// before reconstruction: the plan's schedule is drawn up front and
	// applied to each slice as it streams past, byte-identical to
	// fault.Inject on the whole stack. The ground-truth report is
	// surfaced on Result.Injected so the quality gate can be scored.
	Faults *fault.Plan
	// Workers bounds the worker pool the post-processing fans out on:
	// per-slice denoising, the candidate-shift search inside the MI
	// alignment, and per-layer planar reslicing + segmentation. Values
	// below 1 mean runtime.NumCPU(). The pipeline output is byte-
	// identical for every worker count — each unit of work is
	// index-addressed with no shared mutable state, and assembly happens
	// in the sequential order.
	Workers int
	// Obs is the observability sink: per-stage spans (see Stages),
	// per-worker child spans on the fan-outs, deterministic counters and
	// progress logging, propagated into the register, denoise and fault
	// layers unless those options carry their own. Nil disables all
	// instrumentation. Observation never perturbs results: with Obs set
	// or nil, for any worker count, the pipeline output is byte-
	// identical, and the counter values themselves are deterministic.
	Obs *obs.Observer
	// Ckpt, when non-nil, persists the extraction ("netex") of RunCtx and
	// RunOnDieCtx into the store, so a finished computation is never
	// repeated; only those two checkpoint. Acquisition is synthetic and
	// deterministic, so an interrupted run costs at most one
	// reconstruction. Keys derive from the chip ID (RunCtx) or "<chip>/die"
	// (RunOnDieCtx) plus a fingerprint of the result-affecting options —
	// worker counts and observability sinks are excluded, so any worker
	// count shares the same checkpoints. Standalone ReconstructCtx and
	// PlanarViewsCtx ignore the store: the options alone cannot
	// reproduce the acquisition they are handed. Writes are atomic and
	// checksummed; persistence failures degrade the run to
	// non-resumable but never fail it.
	Ckpt *ckpt.Store
	// Resume enables loading from Ckpt in RunCtx and RunOnDieCtx: a verified
	// checkpoint skips every imaging stage and yields byte-identical
	// output to recomputing; a missing, torn or checksum-mismatched one
	// is counted ("ckpt.miss" / "ckpt.corrupt") and transparently
	// recomputed. With Resume false the run only writes checkpoints,
	// never trusts existing ones.
	Resume bool
	// Pool, when non-nil, recycles the reconstruction's image
	// buffers (denoised and aligned slices) across slices — and, when
	// shared, across runs — instead of allocating each fresh. Pooling
	// changes allocation behavior only, never results; the pool's
	// hit/miss/peak-live statistics surface as gauges ("img.pool.*").
	// Nil allocates per slice and lets the GC reclaim.
	Pool *img.Pool
}

// DefaultOptions returns a configuration that survives the default noise
// and drift levels on every studied chip.
func DefaultOptions() Options {
	semOpts := sem.DefaultOptions()
	semOpts.DriftSigmaPx = 0.5
	reg := register.DefaultOptions()
	reg.MaxShift = 4
	// Degrade gracefully instead of trusting a garbage peak: retry with
	// a widened window when the MI peak sits on the search boundary or
	// below the confidence floor, and fall back to the identity shift
	// when retries are exhausted. On clean stacks the peak is interior
	// and confident, so these change nothing.
	reg.MinConfidence = 0.05
	reg.WidenRetries = 2
	den := denoise.DefaultOptions()
	// Gentler fidelity weight than the denoise package default: the
	// cross sections carry 2-4 px features (contacts, fine gates) that
	// stronger TV smoothing erodes before the planar median gets to
	// help.
	den.Lambda = 25
	return Options{
		Units:    2,
		VoxelNM:  4,
		SEM:      semOpts,
		Denoiser: "chambolle",
		Denoise:  den,
		Register: reg,
		Workers:  runtime.NumCPU(),
	}
}

// Result is the outcome of a full pipeline run on one chip.
type Result struct {
	Chip  *chips.Chip
	Truth chipgen.GroundTruth
	// SliceCount and CostHours describe the simulated acquisition.
	SliceCount int
	CostHours  float64
	// ResidualDriftPx is the re-alignment residual after correction.
	ResidualDriftPx float64
	// Repairs is the slice-quality gate's report: which slices were
	// flagged, their classified fault kind, and the repair applied.
	Repairs RepairReport
	// AlignFallbacks counts stack pairs whose MI alignment degraded to
	// the identity-shift fallback.
	AlignFallbacks int
	// Injected is the fault-injection ground truth; nil unless
	// Options.Faults was set.
	Injected *fault.Report
	// Extraction is the reverse-engineered structure.
	Extraction *netex.Result
	// Plan is the segmented rectangle plan the extraction consumed.
	// Exporting the annotated extracted layout
	// (Extraction.AnnotatedCell(Plan, ...)) therefore needs no second
	// reconstruction; the serve layer and extract -gds rely on this.
	Plan *netex.Plan
	// Views are the reconstructed planar views of every fabrication
	// layer by name (the images of Fig. 7d) — exactly what PlanarViewsCtx
	// renders from the same acquisition, before the median filter that
	// precedes segmentation.
	Views map[string]*img.Gray
	// Stats are the per-element measurement statistics.
	Stats map[chips.Element]measure.ElementStats
	// Score is the fidelity against ground truth.
	Score measure.Score
	// Telemetry is the metric snapshot taken when the run completed; nil
	// unless Options.Obs carried a metric registry. Its counters are
	// deterministic (equal inputs and options give equal counters for
	// any worker count); its durations are where all timing lives. With
	// a registry shared across runs (extract -all) the counts are
	// cumulative across the runs finished so far.
	Telemetry *obs.Snapshot
}

// RunCtx executes the full pipeline for one chip, with cooperative
// cancellation and checkpoint/resume. Every stage checks the context
// between its units of work (slices, candidate shifts, layers), so
// cancellation — a deadline, SIGINT — is honored promptly and the error
// unwraps to ctx.Err(). With Options.Ckpt set, the finished extraction
// persists to the store, and with Options.Resume a later invocation
// with equal options skips every imaging stage, producing a Result
// byte-identical (Telemetry aside, which reflects the work actually
// performed) to an uninterrupted run.
func RunCtx(ctx context.Context, chip *chips.Chip, o Options) (*Result, error) {
	if chip == nil {
		return nil, fmt.Errorf("core: nil chip")
	}
	if o.Units <= 0 || o.VoxelNM <= 0 {
		return nil, fmt.Errorf("core: invalid options (units=%d, voxel=%d)", o.Units, o.VoxelNM)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}
	ob := o.Obs
	ob.Info("run start", "chip", chip.ID, "workers", par.Count(o.Workers))
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	cfg.JitterPct = o.JitterPct
	cfg.JitterSeed = o.JitterSeed
	sp := ob.StartSpan(StageGenerate)
	region, err := chipgen.Generate(cfg)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: generate: %w", err)
	}
	// Use the chip's Table I detector.
	o.SEM.Detector = chip.Detector
	// Ground-truth planes rasterize lazily, one slicing plane at a time,
	// so the material volume is never materialized.
	window := region.Cell.Bounds()
	planes, err := chipgen.NewPlaneSource(region.Cell, window, o.VoxelNM)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: voxelize: %w", err)
	}
	return runPlanes(ctx, chip, chip.ID, region.Truth, planes, window, o)
}

// runPlanes is the pipeline from the material planes on, shared by RunCtx
// and RunOnDieCtx: acquisition renders slice by slice inside the stream's
// feeder (under the acquire stage span), the fault schedule corrupts
// each slice as it passes, and reconstructStream folds the slices into
// planar views — so the window, not the stack depth, bounds the live
// set. Slice count and cost derive up front from the plane dimensions;
// they match a materialized acquisition's exactly. With a checkpoint
// store the extraction is the one boundary, keyed under unit: a
// verified netex artifact skips every imaging stage.
func runPlanes(ctx context.Context, chip *chips.Chip, unit string, truth chipgen.GroundTruth,
	planes sem.MaterialPlanes, window geom.Rect, o Options) (*Result, error) {
	ck, err := newCkptRef(unit, o)
	if err != nil {
		return nil, err
	}
	var na netexArtifact
	if ck.load(CkptNetex, &na) {
		return finishResult(chip, truth, na, o), nil
	}
	ob := o.Obs
	nx, ny, nz := planes.Dims()
	n := sem.SliceCount(nz, o.SEM.SliceStep)
	cost := sem.CostHoursFor(nx, ny, n, o.SEM.DwellUS)
	var faults *fault.Schedule
	if o.Faults != nil {
		sp := ob.StartSpan(StageInject)
		faults, err = fault.NewSchedule(*o.Faults, n, nx, ny, ob)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: inject: %w", err)
		}
	}
	src := func(ctx context.Context, emit func(int, *img.Gray) error) error {
		sp := ob.StartSpan(StageAcquire)
		defer sp.End()
		var emitErr error
		err := sem.StreamStackCtx(ctx, planes, o.SEM, func(i, _ int, g *img.Gray, _ [2]float64) error {
			g, err := faults.Apply(i, g)
			if err != nil {
				err = fmt.Errorf("core: inject: %w", err)
			} else {
				err = emit(i, g)
			}
			emitErr = err
			return err
		})
		if err != nil {
			if err == emitErr {
				// Downstream failures (gate, cancellation) pass through
				// with their own context; only acquisition's own errors
				// carry the acquire wrap.
				return err
			}
			return fmt.Errorf("core: acquire: %w", err)
		}
		ob.Info("acquired", "chip", chip.ID, "slices", n, "cost_hours", cost)
		return nil
	}
	plan, info, views, err := reconstructStream(ctx, n, src, o.SEM.DwellUS, window, o)
	if err != nil {
		return nil, err
	}
	ext, err := extractPlan(plan, o)
	if err != nil {
		return nil, err
	}
	na = netexArtifact{
		Ext: ext, Plan: plan, Info: info, Injected: faults.Report(),
		SliceCount: n, CostHours: cost, Views: views,
	}
	ck.save(CkptNetex, na)
	return finishResult(chip, truth, na, o), nil
}

// finishResult runs the always-recomputed tail of the pipeline —
// measurement and fidelity scoring, both cheap and deterministic — and
// assembles the Result. Shared by the fresh and resumed paths so both
// produce identical structures.
func finishResult(chip *chips.Chip, truth chipgen.GroundTruth, na netexArtifact, o Options) *Result {
	ob := o.Obs
	res := &Result{
		Chip: chip, Truth: truth,
		SliceCount: na.SliceCount, CostHours: na.CostHours,
		ResidualDriftPx: na.Info.ResidualDriftPx,
		Repairs:         na.Info.Repairs,
		AlignFallbacks:  na.Info.AlignFallbacks,
		Injected:        na.Injected,
		Extraction:      na.Ext,
		Plan:            na.Plan,
		Views:           na.Views,
	}
	ext := na.Ext
	sp := ob.StartSpan(StageMeasure)
	res.Stats = measure.FromTransistors(ext.Transistors)
	sp.End()
	sp = ob.StartSpan(StageScore)
	res.Score = measure.CompareToTruth(ext, truth)
	sp.End()
	res.Telemetry = ob.Snapshot()
	ob.Info("run done", "chip", chip.ID,
		"topology", ext.Topology.String(), "correct", res.Score.TopologyCorrect,
		"repairs", len(res.Repairs.Repairs), "align_fallbacks", res.AlignFallbacks)
	return res
}

// extractPlan runs the circuit extraction under its own stage span.
func extractPlan(plan *netex.Plan, o Options) (*netex.Result, error) {
	sp := o.Obs.StartSpan(StageNetex)
	defer sp.End()
	ext, err := netex.Extract(plan)
	if err != nil {
		return nil, fmt.Errorf("core: extract: %w", err)
	}
	return ext, nil
}

// ReconInfo reports what the reconstruction had to do to the stack
// beyond the nominal path.
type ReconInfo struct {
	// ResidualDriftPx is the post-alignment drift estimate (zero when
	// alignment did not run).
	ResidualDriftPx float64
	// Repairs is the slice-quality gate's report.
	Repairs RepairReport
	// AlignFallbacks counts pairs that degraded to the identity-shift
	// fallback during stack alignment.
	AlignFallbacks int
}

// ReconstructCtx performs the post-processing of Section IV-C plus planar
// segmentation of Section V-A on an acquisition: screen and repair the
// raw stack (slice-quality gate), denoise every slice, align the stack,
// extract per-layer planar views and segment them into the rectangle
// plan the circuit extraction consumes. It does not apply
// Options.Faults: the acquisition is taken as given. It honors
// cancellation and never checkpoints (see Options.Ckpt).
func ReconstructCtx(ctx context.Context, acq *sem.Acquisition, window geom.Rect, o Options) (*netex.Plan, ReconInfo, error) {
	plan, info, _, err := reconstructStream(ctx, len(acq.Slices), streamAcqSource(acq), acq.Options.DwellUS, window, o)
	if err != nil {
		return nil, ReconInfo{}, err
	}
	return plan, info, nil
}

// regOptions propagates the pipeline worker budget and observability
// sink into the alignment options when the caller has not set them there
// explicitly.
func regOptions(o Options) register.Options {
	reg := o.Register
	if reg.Workers == 0 {
		reg.Workers = o.Workers
	}
	if reg.Obs == nil {
		reg.Obs = o.Obs
	}
	return reg
}

// PlanarViewsCtx denoises and aligns an acquisition, then returns the
// reconstructed planar view image of every fabrication layer by name —
// the images of Fig. 7d. It honours the same Options.Denoiser selection
// and alignment guard as ReconstructCtx, honors cancellation and never
// checkpoints (see Options.Ckpt).
func PlanarViewsCtx(ctx context.Context, acq *sem.Acquisition, o Options) (map[string]*img.Gray, error) {
	f, _, err := foldStream(ctx, len(acq.Slices), streamAcqSource(acq), acq.Options.DwellUS, o)
	if err != nil {
		return nil, err
	}
	return f.viewMap(), nil
}

// bandedLayers returns the fabrication layers that have a depth band in
// the voxel model, in layout order.
func bandedLayers() []layout.Layer {
	var out []layout.Layer
	for _, layer := range layout.Layers() {
		if _, ok := chipgen.Band(layer); ok {
			out = append(out, layer)
		}
	}
	return out
}

// flatField removes the per-slice charging offset by anchoring each
// slice's background level (10th intensity percentile) at zero, so that
// a global threshold on the resliced planar views treats every slice row
// consistently. The percentile comes from a strided sample of ~1024
// pixels, never fewer than min(len(Pix), 64) so small slices still get a
// meaningful background estimate.
func flatField(g *img.Gray) {
	n := len(g.Pix)
	if n == 0 {
		return
	}
	minSamples := 64
	if n < minSamples {
		minSamples = n
	}
	step := n/1024 + 1
	if maxStep := n / minSamples; step > maxStep {
		step = maxStep
	}
	sample := make([]float64, 0, (n+step-1)/step)
	for i := 0; i < n; i += step {
		sample = append(sample, g.Pix[i])
	}
	sort.Float64s(sample)
	p10 := sample[len(sample)/10]
	for i := range g.Pix {
		g.Pix[i] -= p10
	}
}

// PlanFromVolumeCtx reslices the reconstructed volume into one planar view
// per fabrication layer, segments each view, and converts the recovered
// rectangles to nanometer coordinates. The two phases (reslice, then
// segment) each fan out over the layers under their own stage span;
// phase order and the per-layer index addressing keep the plan
// byte-identical to a sequential build for any worker count. The
// context is checked between layers in both fan-outs.
func PlanFromVolumeCtx(ctx context.Context, vol *volume.Volume, window geom.Rect, o Options) (*netex.Plan, error) {
	layers := bandedLayers()
	return planFromViews(ctx, layers, func(i int) (*img.Gray, error) {
		y0, y1 := bandInterior(layers[i])
		view, err := vol.PlanarAverage(y0, y1)
		if err != nil {
			return nil, fmt.Errorf("core: planar view of %s: %w", layers[i], err)
		}
		return view, nil
	}, window, o)
}

// planFromViews is the tail every reconstruction shares: each layer's
// raw planar view (raw(i) yields layer i's) is median-filtered — the
// cross-section denoising ran per slice, so the planar view still needs
// an edge-preserving median before thresholding — then segmented, and
// the rectangles are assembled into the plan in layout order.
func planFromViews(ctx context.Context, layers []layout.Layer, raw func(i int) (*img.Gray, error),
	window geom.Rect, o Options) (*netex.Plan, error) {
	views := make([]*img.Gray, len(layers))
	err := o.Obs.ForEachCtx(ctx, StageReslice, o.Workers, len(layers), func(_ context.Context, i int) error {
		view, err := raw(i)
		if err != nil {
			return err
		}
		views[i] = img.MedianFilter(view, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Each layer's segmentation is independent; the rectangles are
	// collected per layer index and assembled into the plan in layout
	// order afterwards.
	perLayer := make([][]geom.Rect, len(layers))
	err = o.Obs.ForEachCtx(ctx, StageSegment, o.Workers, len(layers), func(_ context.Context, i int) error {
		perLayer[i] = segmentLayer(views[i], window, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	plan := netex.NewPlan()
	for i, layer := range layers {
		for _, r := range perLayer[i] {
			plan.Add(layer, r)
		}
	}
	return plan, nil
}

// bandInterior returns the depth rows a layer's planar view averages:
// the band interior, because residual slice misalignment only bleeds
// into the band's edge rows. Every depth band is at least three rows
// deep, so the interior is never empty.
func bandInterior(layer layout.Layer) (y0, y1 int) {
	band, _ := chipgen.Band(layer)
	y0, y1 = band.Y0, band.Y1
	if y1-y0 > 2 {
		y0, y1 = y0+1, y1-1
	}
	return y0, y1
}

// segmentLayer thresholds one resliced planar view and returns the
// recovered rectangles in nanometer coordinates. It returns no
// rectangles for a band with no structure.
func segmentLayer(view *img.Gray, window geom.Rect, o Options) []geom.Rect {
	zScale := o.VoxelNM * int64(o.SEM.SliceStep)
	// Otsu splits the background on sparse layers (contacts and
	// vias cover ~1% of the area), so the mid-range threshold
	// competes with it and the better class separation wins. A band
	// with no structure (e.g. capacitors in an SA-only region)
	// separates poorly under both and is skipped.
	st := view.Statistics()
	thr, sep := 0.0, -1.0
	for _, cand := range []float64{segment.Otsu(view), (st.Min + st.Max) / 2} {
		if fg, bg, ok := classMeans(view, cand); ok && fg-bg > sep {
			thr, sep = cand, fg-bg
		}
	}
	if sep < 0.15 {
		return nil
	}
	// No morphological opening: it would erase the 2-pixel contacts and
	// vias, and the median filter has already removed impulse noise.
	mask := segment.Threshold(view, thr)
	var out []geom.Rect
	for _, r := range segmentDecompose(mask, view.W) {
		out = append(out, geom.R(
			window.Min.X+int64(r[0])*o.VoxelNM,
			window.Min.Y+int64(r[1])*zScale,
			window.Min.X+int64(r[2])*o.VoxelNM,
			window.Min.Y+int64(r[3])*zScale,
		))
	}
	return out
}

// minComponentPx is the area, in pixels, below which a segmented
// rectangle counts as a speck and is pruned.
const minComponentPx = 3

// classMeans returns the mean intensity of the pixels above and below the
// threshold; ok is false when either class is (nearly) empty.
func classMeans(g *img.Gray, thr float64) (fg, bg float64, ok bool) {
	var sumF, sumB float64
	var nF, nB int
	for _, v := range g.Pix {
		if v > thr {
			sumF += v
			nF++
		} else {
			sumB += v
			nB++
		}
	}
	if nF < len(g.Pix)/1000 || nB < len(g.Pix)/1000 {
		return 0, 0, false
	}
	return sumF / float64(nF), sumB / float64(nB), true
}

// segmentDecompose splits the mask into rectangles (tolerating the
// 2-pixel corner rounding that opening and blur introduce) and prunes
// those smaller than minComponentPx pixels.
func segmentDecompose(mask []bool, w int) [][4]int {
	var out [][4]int
	for _, r := range segment.DecomposeTol(mask, w, 2) {
		if (r[2]-r[0])*(r[3]-r[1]) >= minComponentPx {
			out = append(out, r)
		}
	}
	return out
}
