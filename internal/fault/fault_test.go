package fault

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/img"
	"repro/internal/sem"
)

// testAcq builds a structured synthetic acquisition: layer-like bands
// plus vertical wires plus mild per-pixel noise, n slices of w x h.
func testAcq(n, w, h int, seed int64) *sem.Acquisition {
	rng := rand.New(rand.NewSource(seed))
	acq := &sem.Acquisition{Options: sem.DefaultOptions()}
	for k := 0; k < n; k++ {
		g := img.New(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := 0.15
				if y > h/3 && y < 2*h/3 {
					v = 0.6
				}
				if (x/5)%3 == 0 {
					v += 0.3
				}
				g.Set(x, y, v+0.03*rng.NormFloat64())
			}
		}
		acq.Slices = append(acq.Slices, g)
		acq.SliceZ = append(acq.SliceZ, k)
		acq.TrueDrift = append(acq.TrueDrift, [2]float64{0, 0})
	}
	return acq
}

func sliceStd(g *img.Gray) float64 { return g.Statistics().Std }

func TestInjectDefaultPlanRateAndDeterminism(t *testing.T) {
	const n = 100
	a := testAcq(n, 60, 48, 3)
	b := testAcq(n, 60, 48, 3)
	plan := DefaultPlan()
	repA, err := Inject(a, plan)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Inject(b, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(len(repA.Injected)) / n; got < 0.10 {
		t.Errorf("default plan corrupted %.0f%% of slices, want >= 10%%", 100*got)
	}
	if len(repA.Injected) != len(repB.Injected) {
		t.Fatalf("same seed, different injection counts: %d vs %d", len(repA.Injected), len(repB.Injected))
	}
	for i := range repA.Injected {
		if repA.Injected[i] != repB.Injected[i] {
			t.Fatalf("injection %d differs: %+v vs %+v", i, repA.Injected[i], repB.Injected[i])
		}
	}
	for k := range a.Slices {
		for i := range a.Slices[k].Pix {
			if a.Slices[k].Pix[i] != b.Slices[k].Pix[i] {
				t.Fatalf("slice %d not byte-identical across equal-seed runs", k)
			}
		}
	}
}

func TestInjectLeavesHealthySlicesUntouched(t *testing.T) {
	const n = 40
	acq := testAcq(n, 50, 40, 7)
	orig := make([]*img.Gray, n)
	for i, s := range acq.Slices {
		orig[i] = s.Clone()
	}
	rep, err := Inject(acq, DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	bad := rep.ByIndex()
	seen := map[int]bool{}
	for _, inj := range rep.Injected {
		if seen[inj.Index] {
			t.Errorf("index %d injected twice", inj.Index)
		}
		seen[inj.Index] = true
		if inj.Kind == KindNone || inj.Kind == KindUnknown {
			t.Errorf("index %d injected with non-model kind %v", inj.Index, inj.Kind)
		}
	}
	for k := range acq.Slices {
		same := true
		for i := range orig[k].Pix {
			if acq.Slices[k].Pix[i] != orig[k].Pix[i] {
				same = false
				break
			}
		}
		if _, corrupted := bad[k]; corrupted && same {
			t.Errorf("slice %d reported corrupted (%v) but unchanged", k, bad[k])
		}
		if !corruptedOK(corruptedFlag(bad, k), same) {
			t.Errorf("slice %d: corrupted=%v unchanged=%v", k, corruptedFlag(bad, k), same)
		}
	}
}

func corruptedFlag(m map[int]Kind, k int) bool { _, ok := m[k]; return ok }
func corruptedOK(corrupted, same bool) bool    { return corrupted != same }

// Each model must leave its detectable signature on the slice.
func TestInjectSignatures(t *testing.T) {
	const n = 50
	acq := testAcq(n, 60, 48, 11)
	ref := testAcq(n, 60, 48, 11)
	rep, err := Inject(acq, DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	var medianStd float64
	{
		stds := make([]float64, n)
		for i, s := range ref.Slices {
			stds[i] = sliceStd(s)
		}
		medianStd = stds[n/2]
	}
	for _, inj := range rep.Injected {
		g := acq.Slices[inj.Index]
		switch inj.Kind {
		case KindDroppedSlice:
			if std := sliceStd(g); std > 0.25*medianStd {
				t.Errorf("dropped slice %d std %v not collapsed (median %v)", inj.Index, std, medianStd)
			}
		case KindChargingFlare:
			sat := 0
			for _, v := range g.Pix {
				if v >= sem.ClampMax {
					sat++
				}
			}
			if frac := float64(sat) / float64(len(g.Pix)); frac < 0.02 {
				t.Errorf("flare slice %d saturation fraction %v too small", inj.Index, frac)
			}
		case KindDetectorDropout:
			zeroRows := 0
			for y := 0; y < g.H; y++ {
				constRow := true
				for x := 1; x < g.W; x++ {
					if g.At(x, y) != g.At(0, y) {
						constRow = false
						break
					}
				}
				if constRow {
					zeroRows++
				}
			}
			if zeroRows < 2 {
				t.Errorf("dropout slice %d has %d constant rows, want >= 2", inj.Index, zeroRows)
			}
		case KindCurtaining:
			// At least a quarter of the columns lose most of their mean.
			damaged := 0
			for x := 0; x < g.W; x++ {
				var got, want float64
				for y := 0; y < g.H; y++ {
					got += g.At(x, y)
					want += ref.Slices[inj.Index].At(x, y)
				}
				if got < 0.5*want {
					damaged++
				}
			}
			if frac := float64(damaged) / float64(g.W); frac < 0.25 {
				t.Errorf("curtain slice %d damaged column fraction %v too small", inj.Index, frac)
			}
		case KindDriftBurst:
			// The frame content must have moved by >= burstMinDX or the
			// vertical minimum: compare to the reference at identity.
			mse, err := img.MSE(g, ref.Slices[inj.Index])
			if err != nil {
				t.Fatal(err)
			}
			if mse < 1e-3 {
				t.Errorf("burst slice %d barely moved (mse %v)", inj.Index, mse)
			}
		}
	}
}

func TestInjectValidation(t *testing.T) {
	acq := testAcq(10, 30, 30, 1)
	if _, err := Inject(nil, DefaultPlan()); err == nil {
		t.Errorf("nil acquisition should error")
	}
	if _, err := Inject(acq, Plan{DropRate: -0.1}); err == nil {
		t.Errorf("negative rate should error")
	}
	if _, err := Inject(acq, Plan{DropRate: 0.6, FlareRate: 0.6}); err == nil {
		t.Errorf("rates summing past 1 should error")
	}
	tiny := testAcq(3, 30, 30, 1)
	if _, err := Inject(tiny, DefaultPlan()); err == nil {
		t.Errorf("too-short stack should error")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDroppedSlice: "dropped-slice",
		KindDriftBurst:   "drift-burst",
		Kind(99):         "Kind(99)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k, want)
		}
	}
}

// A schedule applied slice by slice must reproduce Inject exactly — the
// same report and the same corrupted pixels — so a streaming run can
// corrupt slices as they pass without ever holding the stack.
func TestScheduleMatchesInject(t *testing.T) {
	const n, w, h = 60, 40, 32
	for _, seed := range []int64{1, 7} {
		plan := DefaultPlan()
		plan.Seed = seed
		want := testAcq(n, w, h, 5)
		wantRep, err := Inject(want, plan)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSchedule(plan, n, w, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Report(), wantRep) {
			t.Errorf("seed %d: schedule report %+v != Inject report %+v", seed, s.Report(), wantRep)
		}
		clean := testAcq(n, w, h, 5)
		for i, g := range clean.Slices {
			got, err := s.Apply(i, g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Pix, want.Slices[i].Pix) {
				t.Errorf("seed %d: slice %d differs from Inject", seed, i)
			}
		}
	}
	s, err := NewSchedule(DefaultPlan(), n, w, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := s.Report().Injected[0].Index
	if _, err := s.Apply(idx, img.New(w+1, h)); err == nil {
		t.Error("Apply on a slice of the wrong geometry must error")
	}
	var none *Schedule
	g := img.New(w, h)
	if got, err := none.Apply(idx, g); err != nil || got != g || none.Report() != nil {
		t.Error("a nil schedule must pass slices through and report nothing")
	}
	if _, err := NewSchedule(DefaultPlan(), 3, w, h, nil); err == nil {
		t.Error("a schedule for fewer than 4 slices must be rejected")
	}
}
