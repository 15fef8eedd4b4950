package core

// The whole-stack reference implementation of the reconstruction: every
// stage completes over the materialized stack before the next starts.
// The streaming engine must reproduce it byte for byte, and the
// identity tests, the golden fingerprints and the memory smoke's
// unlimited reference run compare against it. It is test-only — the
// product runs the streaming engine alone.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/denoise"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/netex"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/sem"
	"repro/internal/volume"
)

// referenceReconstruct is ReconstructCtx on the reference path: the gated,
// denoised and aligned stack, the residual drift over it (a pair that
// touches a repaired slice or whose alignment fell back is flagged, as
// the fold flags it), the assembled
// volume and PlanFromVolumeCtx. It also returns the raw planar views of
// the volume, averaged over each band's interior exactly as PlanarViewsCtx
// always has.
func referenceReconstruct(ctx context.Context, acq *sem.Acquisition, window geom.Rect, o Options) (*netex.Plan, ReconInfo, map[string]*img.Gray, error) {
	pre, err := preprocessCtx(ctx, acq, o)
	if err != nil {
		return nil, ReconInfo{}, nil, err
	}
	info := ReconInfo{Repairs: pre.repairs, AlignFallbacks: pre.alignFallbacks}
	if pre.didAlign {
		sp := o.Obs.StartSpan("align/residual")
		repaired := make([]bool, len(pre.slices))
		for _, r := range pre.repairs.Repairs {
			repaired[r.Index] = true
		}
		resid := register.NewResidual(regOptions(o))
		for i := 1; i < len(pre.slices); i++ {
			flagged := repaired[i-1] || repaired[i] || pre.fallback[i]
			if _, err := resid.Pair(ctx, pre.slices[i-1], pre.slices[i], flagged); err != nil {
				sp.End()
				return nil, ReconInfo{}, nil, fmt.Errorf("core: residual: %w", err)
			}
		}
		sp.End()
		info.ResidualDriftPx = resid.Mean()
	}
	sp := o.Obs.StartSpan(StageAssemble)
	vol, err := volume.FromStack(pre.slices)
	sp.End()
	if err != nil {
		return nil, ReconInfo{}, nil, fmt.Errorf("core: stack: %w", err)
	}
	plan, err := PlanFromVolumeCtx(ctx, vol, window, o)
	if err != nil {
		return nil, ReconInfo{}, nil, err
	}
	views := make(map[string]*img.Gray)
	for _, layer := range bandedLayers() {
		band, _ := chipgen.Band(layer)
		view, err := vol.PlanarAverage(band.Y0+1, band.Y1-1)
		if err != nil {
			return nil, ReconInfo{}, nil, err
		}
		views[layer.String()] = view
	}
	return plan, info, views, nil
}

// referenceRun is RunCtx on the reference path: the region is voxelized
// and acquired whole, faults are injected in place on the materialized
// acquisition, and the stack is reconstructed by referenceReconstruct.
func referenceRun(ctx context.Context, chip *chips.Chip, o Options) (*Result, error) {
	acq, truth, window, injected, err := referenceAcquire(ctx, chip, o)
	if err != nil {
		return nil, err
	}
	return referenceFinish(ctx, chip, truth, acq, injected, window, o)
}

// referenceAcquire generates and voxelizes chip's region as RunCtx
// does, acquires it whole and injects o.Faults in place.
func referenceAcquire(ctx context.Context, chip *chips.Chip, o Options) (*sem.Acquisition, chipgen.GroundTruth, geom.Rect, *fault.Report, error) {
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	cfg.JitterPct = o.JitterPct
	cfg.JitterSeed = o.JitterSeed
	sp := o.Obs.StartSpan(StageGenerate)
	region, err := chipgen.Generate(cfg)
	if err != nil {
		sp.End()
		return nil, chipgen.GroundTruth{}, geom.Rect{}, nil, err
	}
	window := region.Cell.Bounds()
	vol, err := chipgen.Voxelize(region.Cell, window, o.VoxelNM)
	sp.End()
	if err != nil {
		return nil, chipgen.GroundTruth{}, geom.Rect{}, nil, err
	}
	acq, injected, err := referenceAcquireVol(ctx, chip, vol, o)
	return acq, region.Truth, window, injected, err
}

// referenceRunOn acquires vol whole, injects o.Faults in place and
// finishes the pipeline on the reference path.
func referenceRunOn(ctx context.Context, chip *chips.Chip, truth chipgen.GroundTruth,
	vol *chipgen.MatVolume, window geom.Rect, o Options) (*Result, error) {
	acq, injected, err := referenceAcquireVol(ctx, chip, vol, o)
	if err != nil {
		return nil, err
	}
	return referenceFinish(ctx, chip, truth, acq, injected, window, o)
}

// referenceAcquireVol acquires vol whole with the chip's detector and
// injects o.Faults in place.
func referenceAcquireVol(ctx context.Context, chip *chips.Chip, vol *chipgen.MatVolume, o Options) (*sem.Acquisition, *fault.Report, error) {
	o.SEM.Detector = chip.Detector
	sp := o.Obs.StartSpan(StageAcquire)
	acq, err := sem.AcquireStackCtx(ctx, vol, o.SEM)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	var injected *fault.Report
	if o.Faults != nil {
		sp := o.Obs.StartSpan(StageInject)
		injected, err = fault.InjectObserved(acq, *o.Faults, o.Obs)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	return acq, injected, nil
}

// referenceFinish reconstructs acq on the reference path and extracts
// and scores the result.
func referenceFinish(ctx context.Context, chip *chips.Chip, truth chipgen.GroundTruth,
	acq *sem.Acquisition, injected *fault.Report, window geom.Rect, o Options) (*Result, error) {
	o.SEM.Detector = chip.Detector
	plan, info, views, err := referenceReconstruct(ctx, acq, window, o)
	if err != nil {
		return nil, err
	}
	ext, err := extractPlan(plan, o)
	if err != nil {
		return nil, err
	}
	return finishResult(chip, truth, netexArtifact{
		Ext: ext, Plan: plan, Info: info, Injected: injected,
		SliceCount: len(acq.Slices), CostHours: acq.CostHours(), Views: views,
	}, o), nil
}

// denoiseSlice applies the configured denoiser to one slice. The caller
// has already rejected unknown denoiser names.
func denoiseSlice(ctx context.Context, s *img.Gray, o Options) (*img.Gray, error) {
	den := o.Denoise
	if den.Obs == nil {
		den.Obs = o.Obs
	}
	switch o.Denoiser {
	case "split-bregman":
		return denoise.SplitBregmanCtx(ctx, s, den)
	case "none", "":
		return s.Clone(), nil
	default: // "chambolle"
		return denoise.ChambolleCtx(ctx, s, den)
	}
}

// preOut is preprocessCtx's bundle: the processed stack plus everything
// the robustness machinery observed along the way.
type preOut struct {
	slices         []*img.Gray
	didAlign       bool
	repairs        RepairReport
	alignFallbacks int
	fallback       []bool // per slice, when didAlign
}

// preprocessCtx is the reference screen + denoise + align prologue: the
// whole-stack slice-quality gate screens and repairs the raw stack,
// then per-slice TV denoising and flat-fielding fan out over
// Options.Workers, then sequential MI stack alignment (only when a
// search window is configured and there is more than one slice).
func preprocessCtx(ctx context.Context, acq *sem.Acquisition, o Options) (preOut, error) {
	var out preOut
	switch o.Denoiser {
	case "chambolle", "split-bregman", "none", "":
	default:
		return out, fmt.Errorf("core: unknown denoiser %q", o.Denoiser)
	}
	ob := o.Obs
	sp := ob.StartSpan(StageQualityGate)
	rep, raw, err := qualityGate(acq, o)
	sp.End()
	if err != nil {
		return out, fmt.Errorf("core: quality gate: %w", err)
	}
	out.repairs = rep
	if n := len(rep.Repairs); n > 0 {
		ob.Info("quality gate", "checked", rep.Checked, "repaired", n)
	}
	slices := make([]*img.Gray, len(raw))
	err = ob.ForEachCtx(ctx, StageDenoise, o.Workers, len(raw), func(ctx context.Context, i int) error {
		g, err := denoiseSlice(ctx, raw[i], o)
		if err != nil {
			return fmt.Errorf("core: denoise slice %d: %w", i, err)
		}
		flatField(g)
		slices[i] = g
		return nil
	})
	if err != nil {
		return out, err
	}
	if o.Register.MaxShift > 0 && len(slices) > 1 {
		sp := ob.StartSpan(StageAlign)
		aligned, sres, err := register.AlignStackCtx(ctx, slices, regOptions(o))
		sp.End()
		if err != nil {
			return out, fmt.Errorf("core: align: %w", err)
		}
		out.slices, out.didAlign = aligned, true
		out.alignFallbacks = sres.Fallbacks()
		out.fallback = sres.Fallback
		if out.alignFallbacks > 0 {
			ob.Info("alignment degraded", "fallbacks", out.alignFallbacks)
		}
		return out, nil
	}
	out.slices = slices
	return out, nil
}

// qualityGate is the reference whole-stack slice-quality gate: it
// screens the raw stack, classifies outliers against the fault models
// and repairs them by interpolating from the nearest healthy neighbors.
// Healthy slices pass through by pointer, so a clean stack is returned
// bit-identical. Features are computed into index-addressed tables and
// classification is sequential, so it is deterministic for every worker
// count. gatestream.go documents the rationale of each detector.
func qualityGate(acq *sem.Acquisition, o Options) (RepairReport, []*img.Gray, error) {
	slices := acq.Slices
	n := len(slices)
	rep := RepairReport{Checked: n}
	if n < 3 {
		return rep, slices, nil
	}
	dwell := acq.Options.DwellUS
	if dwell <= 0 {
		dwell = sem.DefaultOptions().DwellUS
	}
	noiseFloor := sem.NoiseSigma(dwell)

	feats := make([]sliceFeatures, n)
	err := par.ForEachCtx(context.Background(), par.Config{Workers: o.Workers}, n, func(_ context.Context, i int) error {
		if err := slices[i].Validate(); err != nil {
			return fmt.Errorf("core: quality gate slice %d: %w", i, err)
		}
		feats[i] = features(slices[i])
		return nil
	})
	if err != nil {
		return rep, nil, err
	}

	flagged := make([]fault.Kind, n)
	metric := make([]float64, n)
	// Classification is sequential and first-detector-wins.
	flag := func(i int, k fault.Kind, m float64) {
		if flagged[i] == fault.KindNone {
			flagged[i], metric[i] = k, m
			o.Obs.Count("quality.detect."+k.String(), 1)
			o.Obs.Debug("quality gate flagged", "slice", i, "kind", k.String(), "metric", m)
		}
	}

	// Detector 1: constant rows — detector dropout.
	for i, f := range feats {
		if f.constRows > 0 {
			flag(i, fault.KindDetectorDropout, float64(f.constRows))
		}
	}
	// Detector 2: saturated area — charging flare.
	for i, f := range feats {
		if f.satFrac >= gateSatFrac {
			flag(i, fault.KindChargingFlare, f.satFrac)
		}
	}
	// Detector 3: variation below the shot-noise floor — dropped slice.
	for i, f := range feats {
		if f.std < gateDropNoiseFactor*noiseFloor {
			flag(i, fault.KindDroppedSlice, f.std)
		}
	}
	// Detector 4: profile-offset outlier along the unflagged
	// subsequence — drift burst.
	var healthy []int
	for i, k := range flagged {
		if k == fault.KindNone {
			healthy = append(healthy, i)
		}
	}
	axisShift := func(ax func(sliceFeatures) []float64, a, b int) (float64, float64) {
		d, c := profileShift(ax(feats[a]), ax(feats[b]), gateBurstProbePx)
		return float64(d), c
	}
	displacement := func(ax func(sliceFeatures) []float64, p, i, s, ss int) float64 {
		vIn, cin := axisShift(ax, p, i)
		dOut, cout := axisShift(ax, i, s)
		vOut := -dOut
		agree := math.Abs(vIn-vOut) <= 1
		switch {
		case cin >= gateBurstMinCorr:
			if cout >= gateBurstVetoCorr && math.Abs(vOut) <= 1 && !agree {
				return 0
			}
			return vIn
		case cout >= gateBurstMinCorr:
			if cin >= gateBurstVetoCorr && math.Abs(vIn) <= 1 && !agree {
				return 0
			}
			if ss >= 0 && math.Abs(dOut) > 1 {
				dRet, cRet := axisShift(ax, s, ss)
				if cRet >= gateBurstVetoCorr && math.Abs(-dRet-dOut) <= 1 {
					return 0
				}
			}
			return vOut
		}
		return 0
	}
	rowsOf := func(f sliceFeatures) []float64 { return f.rowMean }
	colsOf := func(f sliceFeatures) []float64 { return f.colNorm }
	for t := 1; t+1 < len(healthy); {
		p, i, s := healthy[t-1], healthy[t], healthy[t+1]
		ss := -1
		if t+2 < len(healthy) {
			ss = healthy[t+2]
		}
		resY := math.Abs(displacement(rowsOf, p, i, s, ss))
		resX := math.Abs(displacement(colsOf, p, i, s, ss))
		if resY >= gateBurstDY || resX >= gateBurstDX {
			flag(i, fault.KindDriftBurst, math.Max(resY, resX))
			healthy = append(healthy[:t], healthy[t+1:]...)
			continue
		}
		t++
	}
	// Detector 5: column-mean attenuation — curtaining.
	for i := 0; i < n; i++ {
		if flagged[i] != fault.KindNone {
			continue
		}
		ref := neighborColMin(feats, flagged, i)
		if ref == nil {
			continue
		}
		damaged, cols := 0, 0
		for x := range ref {
			if ref[x] < gateCurtainMinCol {
				continue
			}
			cols++
			if feats[i].colNorm[x] < gateCurtainResid*ref[x] {
				damaged++
			}
		}
		if cols == 0 {
			continue
		}
		if frac := float64(damaged) / float64(cols); frac >= gateCurtainColFrac {
			flag(i, fault.KindCurtaining, frac)
		}
	}
	// Detector 6: MI catch-all against the local median pair MI.
	type pairMI struct {
		mi    float64
		valid bool
	}
	mis := make([]pairMI, n-1)
	err = par.ForEachCtx(context.Background(), par.Config{Workers: o.Workers}, n-1, func(_ context.Context, i int) error {
		if flagged[i] != fault.KindNone || flagged[i+1] != fault.KindNone {
			return nil
		}
		mi, err := register.MutualInformation(slices[i], slices[i+1], gateMIBins)
		if err != nil {
			return fmt.Errorf("core: quality gate pair %d: %w", i, err)
		}
		mis[i] = pairMI{mi: mi, valid: true}
		o.Obs.Count("quality.mi_evals", 1)
		return nil
	})
	if err != nil {
		return rep, nil, err
	}
	for i := 0; i < n; i++ {
		if flagged[i] != fault.KindNone {
			continue
		}
		var local []float64
		for j := i - 1 - gateMIWindow; j <= i+gateMIWindow; j++ {
			if j < 0 || j >= n-1 || j == i-1 || j == i || !mis[j].valid {
				continue
			}
			local = append(local, mis[j].mi)
		}
		if len(local) < 4 {
			continue
		}
		sort.Float64s(local)
		floor := gateMIFloor * local[len(local)/2]
		low, pairs := true, 0
		worst := math.Inf(1)
		for _, j := range []int{i - 1, i} {
			if j < 0 || j >= n-1 || !mis[j].valid {
				continue
			}
			pairs++
			if mis[j].mi >= floor {
				low = false
			}
			if mis[j].mi < worst {
				worst = mis[j].mi
			}
		}
		if pairs > 0 && low {
			flag(i, fault.KindUnknown, worst)
		}
	}

	// Repair from the nearest healthy neighbors.
	out := make([]*img.Gray, n)
	for i := range slices {
		if flagged[i] == fault.KindNone {
			out[i] = slices[i]
		}
	}
	for i := 0; i < n; i++ {
		if flagged[i] == fault.KindNone {
			continue
		}
		j, k := i-1, i+1
		for j >= 0 && flagged[j] != fault.KindNone {
			j--
		}
		for k < n && flagged[k] != fault.KindNone {
			k++
		}
		action := "none"
		switch {
		case j >= 0 && k < n:
			w := float64(k-i) / float64(k-j)
			g := img.New(slices[j].W, slices[j].H)
			for p := range g.Pix {
				g.Pix[p] = w*slices[j].Pix[p] + (1-w)*slices[k].Pix[p]
			}
			out[i] = g
			action = fmt.Sprintf("interp(%d,%d)", j, k)
		case j >= 0:
			out[i] = slices[j].Clone()
			action = fmt.Sprintf("copy(%d)", j)
		case k < n:
			out[i] = slices[k].Clone()
			action = fmt.Sprintf("copy(%d)", k)
		default:
			// Every slice is flagged: nothing healthy to repair from.
			out[i] = slices[i]
		}
		rep.Repairs = append(rep.Repairs, SliceRepair{
			Index: i, Kind: flagged[i], Metric: metric[i], Action: action,
		})
		o.Obs.Debug("quality gate repaired", "slice", i, "kind", flagged[i].String(), "action", action)
	}
	o.Obs.Count("quality.repaired", int64(len(rep.Repairs)))
	return rep, out, nil
}
