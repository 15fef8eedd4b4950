package core

import (
	"context"
	"fmt"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/par"
	"repro/internal/sem"
)

// DieResult is the outcome of the complete die-level flow: blind ROI
// identification (Fig. 6) followed by acquisition, reconstruction and
// extraction of the identified region only — the full workflow of Fig. 5.
type DieResult struct {
	// ROI is the identified region in nanometers along the bitline
	// direction; TrueROI the generator's SA region.
	ROI, TrueROI [2]int64
	// ROIOverlap is |ROI ∩ TrueROI| / |ROI ∪ TrueROI|.
	ROIOverlap float64
	// Pipeline is the extraction result on the cropped region.
	Pipeline *Result
}

// RunOnDie executes the complete flow on a full die strip: row drivers
// and MATs are present, the SA region's location is unknown to the
// pipeline, and only the blindly identified ROI is imaged at full cost.
func RunOnDie(chip *chips.Chip, o Options) (*DieResult, error) {
	return RunOnDieCtx(context.Background(), chip, o)
}

// RunOnDieCtx is RunOnDie with cooperative cancellation and
// checkpoint/resume. Die runs key their checkpoints under
// "<chip>/die" so a die-level resume never collides with a plain Run
// of the same chip at the same options.
func RunOnDieCtx(ctx context.Context, chip *chips.Chip, o Options) (*DieResult, error) {
	if chip == nil {
		return nil, fmt.Errorf("core: nil chip")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: die run: %w", err)
	}
	ob := o.Obs
	ob.Info("die run start", "chip", chip.ID, "workers", par.Count(o.Workers))
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	cfg.JitterPct = o.JitterPct
	cfg.JitterSeed = o.JitterSeed
	sp := ob.StartSpan(StageGenerate)
	die, err := chipgen.GenerateDie(cfg)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: die: %w", err)
	}
	bounds := die.Cell.Bounds()
	vol, err := chipgen.Voxelize(die.Cell, bounds, o.VoxelNM)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: voxelize: %w", err)
	}
	o.SEM.Detector = chip.Detector

	// Blind ROI identification on the cheap scan.
	sp = ob.StartSpan(StageROI)
	roi, _, err := sem.FindROI(vol, o.SEM, 8)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: roi: %w", err)
	}
	out := &DieResult{
		ROI: [2]int64{
			bounds.Min.X + int64(roi.X0)*o.VoxelNM,
			bounds.Min.X + int64(roi.X1)*o.VoxelNM,
		},
		TrueROI: die.SA,
	}
	out.ROIOverlap = intervalIoU(out.ROI, out.TrueROI)
	ob.Info("roi identified", "chip", chip.ID,
		"roi_nm", out.ROI, "overlap", out.ROIOverlap)

	// Die-level ROI discovery and the blind crop are cheap and
	// deterministic, so they run every time; only the full-cost imaging
	// of the cropped volume and everything after it checkpoint, keyed
	// under "<chip>/die" so die runs never collide with plain Runs.
	cropped, err := vol.CropX(roi.X0, roi.X1)
	if err != nil {
		return nil, fmt.Errorf("core: crop: %w", err)
	}
	// Full-cost acquisition of the ROI only, streamed from the cropped
	// volume's planes.
	res, err := runPlanes(ctx, chip, chip.ID+"/die", die.Truth, cropped, cropped.BoundsNM, o)
	if err != nil {
		return nil, err
	}
	out.Pipeline = res
	ob.Info("die run done", "chip", chip.ID,
		"topology", res.Extraction.Topology.String(), "correct", res.Score.TopologyCorrect,
		"roi_overlap", out.ROIOverlap)
	return out, nil
}

func intervalIoU(a, b [2]int64) float64 {
	lo := a[0]
	if b[0] > lo {
		lo = b[0]
	}
	hi := a[1]
	if b[1] < hi {
		hi = b[1]
	}
	inter := hi - lo
	if inter < 0 {
		inter = 0
	}
	union := (a[1] - a[0]) + (b[1] - b[0]) - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
