package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/chips"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/netex"
	"repro/internal/register"
	"repro/internal/volume"
)

// fullSearchResidual is the residual drift as engine version 1 measured
// it: the full MI search (register.AlignCtx) on every pair of the
// aligned stack, averaged.
func fullSearchResidual(ctx context.Context, slices []*img.Gray, o register.Options) (float64, error) {
	var sum float64
	for i := 1; i < len(slices); i++ {
		s, _, err := register.AlignCtx(ctx, slices[i-1], slices[i], o)
		if err != nil {
			return 0, err
		}
		sum += math.Hypot(float64(s.DX), float64(s.DY))
	}
	return sum / float64(len(slices)-1), nil
}

// residualCase is one run of the residual population: a chip under one
// option set.
type residualCase struct {
	name string
	chip *chips.Chip
	o    Options
}

// withFaultSeed returns o with the default fault plan at seed.
func withFaultSeed(o Options, seed int64) Options {
	p := fault.DefaultPlan()
	p.Seed = seed
	o.Faults = &p
	return o
}

// checkResidual reconstructs tc's acquisition on the streaming engine
// and on the reference prologue, and requires the streaming
// ResidualDriftPx to equal the full-search residual of the reference's
// aligned stack, and the plan fingerprint to equal the reference plan's
// with that residual: what engine version 1 reported. When the whole
// run (RunCtx) finishes, its residual and fingerprint must match too;
// a run whose extraction fails (no latch blocks, say) is compared up
// to its plan. checkResidual reports whether the run finished.
func checkResidual(t *testing.T, tc residualCase) bool {
	t.Helper()
	ctx := context.Background()
	acq, _, window, _, err := referenceAcquire(ctx, tc.chip, tc.o)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	pre, err := preprocessCtx(ctx, acq, tc.o)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	full, err := fullSearchResidual(ctx, pre.slices, regOptions(tc.o))
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	vol, err := volume.FromStack(pre.slices)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	refPlan, err := PlanFromVolumeCtx(ctx, vol, window, tc.o)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	want := smokeFingerprint(refPlan, ReconInfo{
		ResidualDriftPx: full, Repairs: pre.repairs, AlignFallbacks: pre.alignFallbacks,
	})
	check := func(path string, plan *netex.Plan, info ReconInfo) {
		if info.ResidualDriftPx != full {
			t.Errorf("%s %s: ResidualDriftPx %v, full search on every pair %v", tc.name, path, info.ResidualDriftPx, full)
		}
		if got := smokeFingerprint(plan, info); got != want {
			t.Errorf("%s %s: plan fingerprint %s, full-search engine %s", tc.name, path, got, want)
		}
	}
	plan, info, err := ReconstructCtx(ctx, acq, window, tc.o)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	check("ReconstructCtx", plan, info)
	res, err := RunCtx(ctx, tc.chip, tc.o)
	if err != nil {
		t.Logf("%s: run failed, compared up to its plan: %v", tc.name, err)
		return false
	}
	check("RunCtx", res.Plan, ReconInfo{
		ResidualDriftPx: res.ResidualDriftPx, Repairs: res.Repairs, AlignFallbacks: res.AlignFallbacks,
	})
	return true
}

// TestResidualMatchesFullSearch pins the residual rule against the full
// search on every pair: the fast profile on all six chips, clean, and
// serve's default profile on B5 and C5 at fault seed 2, the two runs
// whose residual is wrong unless a pair that touches a repaired slice or
// fell back takes the full search: there a flagged pair's ±1 search
// stops at the zero shift while its full search lands outside ±1.
// The default-profile runs take minutes under the race detector, so race
// builds run the fast cases only; make residual-check runs the whole
// 72-run population.
func TestResidualMatchesFullSearch(t *testing.T) {
	var cases []residualCase
	for _, chip := range chips.All() {
		cases = append(cases, residualCase{chip.ID + "/fast", chip, goldenOptions(chip, false)})
	}
	if !raceEnabled {
		for _, id := range []string{"B5", "C5"} {
			chip := chips.ByID(id)
			cases = append(cases, residualCase{id + "/default/seed2", chip, withFaultSeed(DefaultOptions(), 2)})
		}
	}
	for _, tc := range cases {
		checkResidual(t, tc)
	}
}
