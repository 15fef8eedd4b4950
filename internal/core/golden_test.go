package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/sem"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPath holds the committed fingerprints of every chip, clean and
// fault-injected, under serve's "fast" profile.
var goldenPath = filepath.Join("testdata", "golden_fast.json")

// goldenCase is one pinned pipeline outcome. Err pins a known failure
// instead of a result; Views hashes the planar views PlanarViewsCtx
// renders from the same acquisition.
type goldenCase struct {
	Chip        string `json:"chip"`
	Faults      bool   `json:"faults"`
	Err         string `json:"err,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Injected    string `json:"injected,omitempty"`
	Score       string `json:"score,omitempty"`
	Views       string `json:"views"`
}

// goldenOptions mirrors serve's "fast" profile: one SA unit, 8 nm
// voxels, 0.4 px drift and 8 denoise iterations per slice.
func goldenOptions(chip *chips.Chip, faulted bool) Options {
	o := DefaultOptions()
	o.Units = 1
	o.VoxelNM = 8
	o.SEM.DriftSigmaPx = 0.4
	o.Denoise.Iterations = 8
	o.SEM.Detector = chip.Detector
	if faulted {
		p := fault.DefaultPlan()
		o.Faults = &p
	}
	return o
}

// TestGoldenFingerprints pins the end-to-end output of every chip, clean
// and with the default fault plan, against fingerprints committed in
// testdata: the canonical plan + reconstruction-report hash, the fault
// injection report, the fidelity score, and a hash of the planar views.
// Each case runs at one worker without a checkpoint store, at three with
// a fresh store, and at one again resuming from that store.
// Run with -update to rewrite the goldens from the current code.
func TestGoldenFingerprints(t *testing.T) {
	var got []goldenCase
	for _, chip := range chips.All() {
		for _, faulted := range []bool{false, true} {
			views, err := goldenViews(chip, goldenOptions(chip, faulted))
			if err != nil {
				t.Fatalf("%s faults=%v: views: %v", chip.ID, faulted, err)
			}
			store, err := ckpt.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var gc goldenCase
			for i, run := range []struct {
				workers int
				store   *ckpt.Store
			}{{1, nil}, {3, store}, {1, store}} {
				o := goldenOptions(chip, faulted)
				o.Workers = run.workers
				o.Ckpt = run.store
				o.Resume = run.store != nil
				rc := goldenCase{Chip: chip.ID, Faults: faulted, Views: views}
				res, err := RunCtx(context.Background(), chip, o)
				if err != nil {
					rc.Err = err.Error()
				} else {
					rc.Fingerprint = smokeFingerprint(res.Plan, ReconInfo{
						ResidualDriftPx: res.ResidualDriftPx,
						Repairs:         res.Repairs,
						AlignFallbacks:  res.AlignFallbacks,
					})
					if res.Injected != nil {
						rc.Injected = fmt.Sprintf("%+v", *res.Injected)
					}
					rc.Score = fmt.Sprintf("%+v", res.Score)
				}
				if i == 0 {
					gc = rc
				} else if rc != gc {
					t.Errorf("%s faults=%v workers=%d ckpt=%v: %+v differs from workers=1 run %+v",
						chip.ID, faulted, run.workers, run.store != nil, rc, gc)
				}
			}
			got = append(got, gc)
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantEnc, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(enc, wantEnc) {
		return
	}
	var want []goldenCase
	if err := json.Unmarshal(wantEnc, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s faults=%v:\n got  %+v\n want %+v", want[i].Chip, want[i].Faults, got[i], want[i])
		}
	}
}

// goldenFingerprint returns the committed fast-profile fingerprint of
// one chip, clean or faulted.
func goldenFingerprint(t *testing.T, chip string, faults bool) string {
	t.Helper()
	enc, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(enc, &cases); err != nil {
		t.Fatal(err)
	}
	for _, gc := range cases {
		if gc.Chip == chip && gc.Faults == faults && gc.Err == "" {
			return gc.Fingerprint
		}
	}
	t.Fatalf("%s: no %s faults=%v fingerprint", goldenPath, chip, faults)
	return ""
}

// goldenViews acquires the chip's region exactly as RunCtx does, applies
// the fault plan, and hashes the planar views PlanarViewsCtx renders.
func goldenViews(chip *chips.Chip, o Options) (string, error) {
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	region, err := chipgen.Generate(cfg)
	if err != nil {
		return "", err
	}
	vol, err := chipgen.Voxelize(region.Cell, region.Cell.Bounds(), o.VoxelNM)
	if err != nil {
		return "", err
	}
	acq, err := sem.AcquireStackCtx(context.Background(), vol, o.SEM)
	if err != nil {
		return "", err
	}
	if o.Faults != nil {
		if _, err := fault.Inject(acq, *o.Faults); err != nil {
			return "", err
		}
	}
	o.Workers = 3
	views, err := PlanarViewsCtx(context.Background(), acq, o)
	if err != nil {
		return "", err
	}
	return viewsHash(views), nil
}

// viewsHash hashes a set of planar views canonically: names in sorted
// order, then each view's dimensions and exact pixel bits.
func viewsHash(views map[string]*img.Gray) string {
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		v := views[name]
		fmt.Fprintf(h, "%s %d %d\n", name, v.W, v.H)
		buf := make([]byte, 0, 8*len(v.Pix))
		for _, p := range v.Pix {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenDefaultPath pins the default profile on chip B4, the input of
// perfbench's recon-clean workload: 4 nm voxels and 60 denoise
// iterations per slice, which the fast-profile goldens never reach.
var goldenDefaultPath = filepath.Join("testdata", "golden_default.json")

// goldenDefaultCase is the pinned B4 outcome together with the two
// exact work counts a kernel rewrite must not move.
type goldenDefaultCase struct {
	Chip              string `json:"chip"`
	Fingerprint       string `json:"fingerprint"`
	Score             string `json:"score"`
	DenoiseIterations int64  `json:"denoise_iterations"`
	MIEvals           int64  `json:"mi_evals"`
}

// TestGoldenDefaultB4 pins a clean default-profile extraction of B4,
// set up as `hifidram extract -chip B4 -dwell 12` with exhaustive
// alignment (perfbench's recon-clean options). A full B4 extraction
// takes minutes under the race detector, so race builds skip it; the
// fast-profile goldens still run there. Run with -update to rewrite.
func TestGoldenDefaultB4(t *testing.T) {
	if raceEnabled {
		t.Skip("default-profile B4 extraction is too slow under the race detector")
	}
	chip := chips.ByID("B4")
	o := DefaultOptions()
	o.SEM.DwellUS = 12
	o.Register.Pyramid = 0
	o.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	res, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDefaultCase{
		Chip: chip.ID,
		Fingerprint: smokeFingerprint(res.Plan, ReconInfo{
			ResidualDriftPx: res.ResidualDriftPx,
			Repairs:         res.Repairs,
			AlignFallbacks:  res.AlignFallbacks,
		}),
		Score:             fmt.Sprintf("%+v", res.Score),
		DenoiseIterations: res.Telemetry.Counters["denoise.iterations"],
		MIEvals:           res.Telemetry.Counters["register.mi_evals"],
	}
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDefaultPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantEnc, err := os.ReadFile(goldenDefaultPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want goldenDefaultCase
	if err := json.Unmarshal(wantEnc, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("B4 default profile:\n got  %+v\n want %+v", got, want)
	}
}
