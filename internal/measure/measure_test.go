package measure

import (
	"math"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/netex"
)

func extractFor(t testing.TB, id string) (*netex.Result, chipgen.GroundTruth) {
	t.Helper()
	r, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID(id)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := netex.Extract(netex.FromCell(r.Cell))
	if err != nil {
		t.Fatal(err)
	}
	return res, r.Truth
}

func TestFromTransistorsStats(t *testing.T) {
	res, truth := extractFor(t, "C4")
	stats := FromTransistors(res.Transistors)
	for e, want := range truth.Dims {
		s, ok := stats[e]
		if !ok {
			t.Errorf("missing stats for %s", e)
			continue
		}
		if math.Abs(s.W.Mean-want.W) > 1.1 {
			t.Errorf("%s: mean W %.1f, want %.1f", e, s.W.Mean, want.W)
		}
		if math.Abs(s.L.Mean-want.L) > 1.1 {
			t.Errorf("%s: mean L %.1f, want %.1f", e, s.L.Mean, want.L)
		}
		// Noise-free extraction: zero variance within an element.
		if s.W.Std > 0.01 || s.L.Std > 0.01 {
			t.Errorf("%s: unexpected measurement spread W=%v L=%v", e, s.W.Std, s.L.Std)
		}
		if s.W.Min > s.W.Mean || s.W.Max < s.W.Mean {
			t.Errorf("%s: inconsistent min/mean/max", e)
		}
	}
}

func TestTotalMeasurements(t *testing.T) {
	res, truth := extractFor(t, "B5")
	stats := FromTransistors(res.Transistors)
	// Two measurements (W and L) per transistor instance.
	if got := TotalMeasurements(stats); got != 2*truth.TransistorCount {
		t.Errorf("measurements = %d, want %d", got, 2*truth.TransistorCount)
	}
}

func TestCompareToTruthPerfect(t *testing.T) {
	for _, id := range []string{"C4", "A4", "B5"} {
		res, truth := extractFor(t, id)
		sc := CompareToTruth(res, truth)
		if !sc.TopologyCorrect || !sc.BitlinesCorrect {
			t.Errorf("%s: topology/bitlines wrong: %s", id, sc.Summary())
		}
		if sc.MeanRelErr > 0.03 {
			t.Errorf("%s: mean relative error %.3f too high", id, sc.MeanRelErr)
		}
		if len(sc.MissingElements) > 0 || len(sc.SpuriousElements) > 0 {
			t.Errorf("%s: element set mismatch: %s", id, sc.Summary())
		}
		if len(sc.Comparisons) != len(truth.Dims) {
			t.Errorf("%s: comparisons = %d, want %d", id, len(sc.Comparisons), len(truth.Dims))
		}
		if sc.Summary() == "" {
			t.Errorf("empty summary")
		}
	}
}

func TestCompareDetectsTopologyMismatch(t *testing.T) {
	res, truth := extractFor(t, "C4")
	res.Topology = chips.OCSA // corrupt
	sc := CompareToTruth(res, truth)
	if sc.TopologyCorrect {
		t.Errorf("corrupted topology not detected")
	}
}

func TestCompareDetectsMissingElement(t *testing.T) {
	res, truth := extractFor(t, "C4")
	// Remove every equalizer transistor.
	var ts []netex.Transistor
	for _, tr := range res.Transistors {
		if tr.Element != chips.Equalizer {
			ts = append(ts, tr)
		}
	}
	res.Transistors = ts
	sc := CompareToTruth(res, truth)
	if len(sc.MissingElements) != 1 || sc.MissingElements[0] != chips.Equalizer {
		t.Errorf("missing equalizer not reported: %s", sc.Summary())
	}
}

func TestNewStatEdgeCases(t *testing.T) {
	if s := newStat(nil); s.N != 0 {
		t.Errorf("empty stat = %+v", s)
	}
	s := newStat([]float64{2, 4})
	if s.Mean != 3 || s.Min != 2 || s.Max != 4 || s.N != 2 {
		t.Errorf("stat = %+v", s)
	}
	if math.Abs(s.Std-1) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestRelErr(t *testing.T) {
	if relErr(110, 100) != 0.1 {
		t.Errorf("relErr = %v", relErr(110, 100))
	}
	if relErr(5, 0) != 0 {
		t.Errorf("zero want should yield 0")
	}
}
