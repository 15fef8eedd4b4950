package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/sem"
)

// chipAcquisition builds a production-resolution acquisition for one chip
// (the geometry and artifact levels the gate thresholds are tuned
// against), without running the rest of the pipeline.
func chipAcquisition(t *testing.T, id string, o Options) (*sem.Acquisition, geom.Rect) {
	t.Helper()
	chip := chips.ByID(id)
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	region, err := chipgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := region.Cell.Bounds()
	vol, err := chipgen.Voxelize(region.Cell, window, o.VoxelNM)
	if err != nil {
		t.Fatal(err)
	}
	o.SEM.Detector = chip.Detector
	acq, err := sem.AcquireStackCtx(context.Background(), vol, o.SEM)
	if err != nil {
		t.Fatal(err)
	}
	return acq, window
}

// streamGate drives the production gate over a whole acquisition: every
// slice is pushed through a gateStream in stack order, the emitted
// slices are collected by index, and the gate's report is returned. It
// also runs the whole-stack reference gate on the same stack and fails
// the test unless both agree: the same report, the same passthrough
// pointers, and pixel-identical repairs.
func streamGate(t *testing.T, acq *sem.Acquisition, o Options) (RepairReport, []*img.Gray) {
	t.Helper()
	out := make([]*img.Gray, len(acq.Slices))
	s := newGateStream(o, len(acq.Slices), acq.Options.DwellUS, func(i int, g *img.Gray, _ bool) error {
		out[i] = g
		return nil
	})
	for i, g := range acq.Slices {
		if err := s.push(i, g); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	refRep, refOut, err := qualityGate(acq, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.rep, refRep) {
		t.Errorf("streaming gate report differs from the reference:\nstream:    %+v\nreference: %+v", s.rep, refRep)
	}
	for i := range out {
		if refOut[i] == acq.Slices[i] {
			if out[i] != refOut[i] {
				t.Errorf("slice %d: reference passed it through, streaming gate did not", i)
			}
		} else if out[i] == acq.Slices[i] || !reflect.DeepEqual(out[i].Pix, refOut[i].Pix) {
			t.Errorf("slice %d: streaming repair differs from the reference", i)
		}
	}
	return s.rep, out
}

// The gate must stay completely silent on clean acquisitions: an empty
// report and every slice passed through by pointer, so the clean-path
// output stays byte-identical with the gate enabled.
func TestQualityGateCleanStacksUntouched(t *testing.T) {
	for _, chip := range chips.All() {
		o := DefaultOptions()
		acq, _ := chipAcquisition(t, chip.ID, o)
		rep, out := streamGate(t, acq, o)
		if len(rep.Repairs) != 0 {
			t.Errorf("%s: clean stack got %d repairs: %+v", chip.ID, len(rep.Repairs), rep.Repairs)
		}
		if rep.Checked != len(acq.Slices) {
			t.Errorf("%s: checked %d of %d slices", chip.ID, rep.Checked, len(acq.Slices))
		}
		for i := range out {
			if out[i] != acq.Slices[i] {
				t.Errorf("%s: clean slice %d was copied instead of passed through", chip.ID, i)
			}
		}
	}
}

// With the default fault plan (>=10% of slices corrupted) the gate must
// identify at least 90% of the injected slices and essentially nothing
// else, on both a classic and an OCSA chip.
func TestQualityGateRecallAndPrecision(t *testing.T) {
	for _, id := range []string{"A4", "B4"} {
		o := DefaultOptions()
		o.SEM.DwellUS = 12
		acq, _ := chipAcquisition(t, id, o)
		plan := fault.DefaultPlan()
		truth, err := fault.Inject(acq, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(truth.Injected); got < len(acq.Slices)/10 {
			t.Fatalf("%s: default plan corrupted only %d of %d slices", id, got, len(acq.Slices))
		}
		rep, out := streamGate(t, acq, o)
		flagged := make(map[int]bool, len(rep.Repairs))
		for _, r := range rep.Repairs {
			flagged[r.Index] = true
			if r.Action == "" {
				t.Errorf("%s: repair %d has no action", id, r.Index)
			}
		}
		byIdx := truth.ByIndex()
		hit := 0
		for idx := range byIdx {
			if flagged[idx] {
				hit++
			}
		}
		if recall := float64(hit) / float64(len(byIdx)); recall < 0.9 {
			t.Errorf("%s: recall %.0f%% below 90%% (%d/%d)", id, 100*recall, hit, len(byIdx))
		}
		fp := 0
		for idx := range flagged {
			if _, injected := byIdx[idx]; !injected {
				fp++
			}
		}
		if fp > 1 {
			t.Errorf("%s: %d healthy slices falsely flagged", id, fp)
		}
		// Every slice the gate touched must differ from the raw input;
		// every untouched slice must be the same pointer.
		for i := range out {
			if flagged[i] == (out[i] == acq.Slices[i]) && out[i] != nil {
				t.Errorf("%s: slice %d repair/passthrough mismatch (flagged=%v)", id, i, flagged[i])
			}
		}
	}
}

// The reference gate's report and output must be identical for every
// worker count (the streaming gate takes none).
func TestQualityGateDeterministicAcrossWorkers(t *testing.T) {
	o := DefaultOptions()
	o.SEM.DwellUS = 12
	acq, _ := chipAcquisition(t, "A4", o)
	if _, err := fault.Inject(acq, fault.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	o.Workers = 1
	repSerial, outSerial, err := qualityGate(acq, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	repPar, outPar, err := qualityGate(acq, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repSerial, repPar) {
		t.Fatalf("reports diverge across worker counts:\nserial: %+v\nparallel: %+v", repSerial, repPar)
	}
	for i := range outSerial {
		if !reflect.DeepEqual(outSerial[i].Pix, outPar[i].Pix) {
			t.Errorf("slice %d pixels diverge across worker counts", i)
		}
	}
}

// Tiny stacks cannot support neighbor-based screening; the gate must pass
// them through untouched rather than misfire.
func TestQualityGateTinyStackPassthrough(t *testing.T) {
	o := DefaultOptions()
	acq, _ := chipAcquisition(t, "C4", o)
	acq.Slices = acq.Slices[:2]
	rep, out := streamGate(t, acq, o)
	if len(rep.Repairs) != 0 || len(out) != 2 {
		t.Errorf("tiny stack was modified: %+v", rep)
	}
}

// End to end: a heavily faulted acquisition must still complete the full
// pipeline without error, recover the topology, surface the injection
// ground truth, and land within a bounded fidelity delta of the clean
// run.
func TestRunWithFaultsSelfHeals(t *testing.T) {
	o := DefaultOptions()
	o.SEM.DwellUS = 12
	chip := chips.ByID("A4")
	clean, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Injected != nil || len(clean.Repairs.Repairs) != 0 {
		t.Fatalf("clean run reports phantom faults: %+v", clean.Repairs)
	}
	plan := fault.DefaultPlan()
	o.Faults = &plan
	faulted, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatalf("faulted run must self-heal, got: %v", err)
	}
	if faulted.Injected == nil || len(faulted.Injected.Injected) == 0 {
		t.Fatal("faulted run did not surface the injection report")
	}
	if !faulted.Score.TopologyCorrect {
		t.Errorf("faulted run lost the topology: %s", faulted.Score.Summary())
	}
	flagged := make(map[int]bool)
	for _, r := range faulted.Repairs.Repairs {
		flagged[r.Index] = true
	}
	hit := 0
	for idx := range faulted.Injected.ByIndex() {
		if flagged[idx] {
			hit++
		}
	}
	if recall := float64(hit) / float64(len(faulted.Injected.Injected)); recall < 0.9 {
		t.Errorf("pipeline recall %.0f%% below 90%%", 100*recall)
	}
	if delta := faulted.Score.MeanRelErr - clean.Score.MeanRelErr; delta > 0.10 {
		t.Errorf("fidelity degraded by %.1f%% relative dimension error (clean %.1f%%, faulted %.1f%%)",
			100*delta, 100*clean.Score.MeanRelErr, 100*faulted.Score.MeanRelErr)
	}
}
