package core

import (
	"context"
	"testing"

	"repro/internal/chips"
)

func TestRunOnDieFullFlow(t *testing.T) {
	// The complete Fig. 5 workflow: blind ROI identification on a full
	// die strip (row drivers, MATs, SA region), then acquisition and
	// extraction of only the identified region.
	o := fastOptions()
	res, err := RunOnDieCtx(context.Background(), chips.ByID("B4"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ROIOverlap < 0.9 {
		t.Errorf("ROI IoU %.2f, want >= 0.9 (found %v vs true %v)",
			res.ROIOverlap, res.ROI, res.TrueROI)
	}
	p := res.Pipeline
	if !p.Score.TopologyCorrect {
		t.Errorf("die-level extraction lost the topology: %s", p.Score.Summary())
	}
	if !p.Score.BitlinesCorrect {
		t.Errorf("bitlines = %d, want %d", p.Extraction.Bitlines, p.Truth.Bitlines)
	}
	if len(p.Score.MissingElements) > 0 {
		t.Errorf("missing elements: %v", p.Score.MissingElements)
	}
	if p.Score.MeanRelErr > 0.3 {
		t.Errorf("dimension error %.1f%%", 100*p.Score.MeanRelErr)
	}
}

func TestRunOnDieNilChip(t *testing.T) {
	if _, err := RunOnDieCtx(context.Background(), nil, fastOptions()); err == nil {
		t.Errorf("nil chip should error")
	}
}

func TestRotationSurrogateTrendDrift(t *testing.T) {
	// A consistent per-slice drift trend is the planar-shear artifact a
	// mis-oriented sample produces (the paper's final rotation
	// correction). Sequential MI alignment removes it: extraction still
	// succeeds with a strong systematic trend plus random drift.
	o := fastOptions()
	o.SEM.DriftSigmaPx = 0.4
	o.SEM.DriftTrendPx = 0.3
	res, err := RunCtx(context.Background(), chips.ByID("B4"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Score.TopologyCorrect || len(res.Score.MissingElements) > 0 {
		t.Errorf("trend drift broke extraction: %s", res.Score.Summary())
	}
}
