package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/obs"
)

// resumeOptions is a deliberately cheap configuration: resume tests run
// the pipeline many times over (baseline, populate, one resume per
// boundary per worker count) and only assert determinism, never
// extraction quality.
func resumeOptions() Options {
	o := fastOptions()
	o.Units = 1
	o.Denoise.Iterations = 8
	return o
}

// TestResumeDeterministicAtEveryBoundary is the acceptance test for the
// checkpoint scheme: a run resumed from the extraction ("netex") a RunCtx
// persisted at one worker count, at worker counts the writer did not
// use, skips every imaging stage and produces output identical to an
// uninterrupted run, down to the gob encoding.
func TestResumeDeterministicAtEveryBoundary(t *testing.T) {
	chip := chips.ByID("B4")
	// run returns the full Result for comparison plus a canonical byte
	// form of what round-trips through the checkpoint: the extraction's
	// gob encoding and a canonical hash of the views (a map, whose gob
	// order is not reproducible).
	run := func(o Options) (Result, string, error) {
		res, err := RunCtx(context.Background(), chip, o)
		if err != nil {
			return Result{}, "", err
		}
		var ext bytes.Buffer
		if err := gob.NewEncoder(&ext).Encode(res.Extraction); err != nil {
			return Result{}, "", err
		}
		return stripTelemetry(res), ext.String() + viewsHash(res.Views), nil
	}
	base := resumeOptions()
	want, wantCanon, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the boundary at one worker count...
	populated, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	po := base
	po.Workers = 4
	po.Ckpt = populated
	if _, _, err := run(po); err != nil {
		t.Fatal(err)
	}
	// ...then resume from it at worker counts the writer did not use.
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("%s/workers=%d", CkptNetex, workers), func(t *testing.T) {
			ro := base
			ro.Workers = workers
			ro.Ckpt = populated
			ro.Resume = true
			ro.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
			got, gotCanon, err := run(ro)
			if err != nil {
				t.Fatal(err)
			}
			if n := ro.Obs.Snapshot().Counters["ckpt.resumed."+CkptNetex]; n != 1 {
				t.Errorf("ckpt.resumed.%s = %d, want 1", CkptNetex, n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resume from %q differs from uninterrupted run", CkptNetex)
			}
			if gotCanon != wantCanon {
				t.Errorf("resume from %q: canonical bytes differ", CkptNetex)
			}
		})
	}
}

// TestResumeCorruptCheckpointRecomputed asserts the crash-safety
// contract end to end: a checksum-corrupted checkpoint is never served —
// the run counts it, recomputes the stage, produces an unchanged
// Result, and heals the store.
func TestResumeCorruptCheckpointRecomputed(t *testing.T) {
	chip := chips.ByID("B4")
	base := resumeOptions()
	want, err := RunCtx(context.Background(), chip, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	po := base
	po.Ckpt = store
	if _, err := RunCtx(context.Background(), chip, po); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the netex checkpoint — the first one a
	// resume consults.
	var netexPath string
	entries, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Key.Stage == CkptNetex {
			netexPath = e.Path
		}
	}
	if netexPath == "" {
		t.Fatal("no netex checkpoint written")
	}
	raw, err := os.ReadFile(netexPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(netexPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ro := base
	ro.Ckpt = store
	ro.Resume = true
	ro.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	got, err := RunCtx(context.Background(), chip, ro)
	if err != nil {
		t.Fatal(err)
	}
	if got.Telemetry == nil {
		t.Fatal("no telemetry snapshot")
	}
	if n := got.Telemetry.Counters["ckpt.corrupt"]; n < 1 {
		t.Errorf("ckpt.corrupt = %d, want >= 1", n)
	}
	if !reflect.DeepEqual(stripTelemetry(got), stripTelemetry(want)) {
		t.Errorf("result after corrupt-checkpoint recompute differs from clean run")
	}
	// The recompute's save must have healed the entry.
	for _, e := range entries {
		if e.Key.Stage != CkptNetex {
			continue
		}
		if _, state := store.Get(e.Key); state != ckpt.StateHit {
			t.Errorf("netex checkpoint not healed after recompute: state %v", state)
		}
	}
}

// TestResumeUnreadableCheckpointRecomputed asserts the unreadable-vs-
// corrupt distinction end to end: a checkpoint whose read fails (here: a
// directory at the entry path, the deterministic stand-in for EACCES or
// a transient I/O error) is counted as "ckpt.unreadable" — not
// "ckpt.corrupt" — the stage recomputes, the Result is unchanged, and
// the entry is never deleted on that evidence.
func TestResumeUnreadableCheckpointRecomputed(t *testing.T) {
	chip := chips.ByID("B4")
	base := resumeOptions()
	want, err := RunCtx(context.Background(), chip, base)
	if err != nil {
		t.Fatal(err)
	}

	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	po := base
	po.Ckpt = store
	if _, err := RunCtx(context.Background(), chip, po); err != nil {
		t.Fatal(err)
	}
	var netexPath string
	entries, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Key.Stage == CkptNetex {
			netexPath = e.Path
		}
	}
	if netexPath == "" {
		t.Fatal("no netex checkpoint written")
	}
	if err := os.Remove(netexPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(netexPath, 0o755); err != nil {
		t.Fatal(err)
	}

	ro := base
	ro.Ckpt = store
	ro.Resume = true
	ro.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	got, err := RunCtx(context.Background(), chip, ro)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Telemetry.Counters["ckpt.unreadable"]; n < 1 {
		t.Errorf("ckpt.unreadable = %d, want >= 1", n)
	}
	if n := got.Telemetry.Counters["ckpt.corrupt"]; n != 0 {
		t.Errorf("unreadable entry miscounted as corrupt (%d)", n)
	}
	if !reflect.DeepEqual(stripTelemetry(got), stripTelemetry(want)) {
		t.Errorf("result after unreadable-checkpoint recompute differs from clean run")
	}
	// The unreadable entry must survive: deleting it on a read failure
	// would turn a permissions hiccup into data loss. (The best-effort
	// re-save cannot replace a directory, so the path must still be one.)
	if fi, err := os.Stat(netexPath); err != nil || !fi.IsDir() {
		t.Errorf("unreadable entry was removed or replaced (err=%v)", err)
	}
}

// TestResumeIgnoresForeignFingerprint asserts the keying contract: a
// checkpoint written under different result-affecting options must
// never be loaded, even with Resume set — the fingerprint separates the
// keyspaces and the run recomputes from scratch.
func TestResumeIgnoresForeignFingerprint(t *testing.T) {
	chip := chips.ByID("B4")
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	po := resumeOptions()
	po.Ckpt = store
	if _, err := RunCtx(context.Background(), chip, po); err != nil {
		t.Fatal(err)
	}

	// Different dwell time → different acquisition → different keys.
	ro := resumeOptions()
	ro.SEM.DwellUS = po.SEM.DwellUS * 2
	ro.Ckpt = store
	ro.Resume = true
	ro.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	got, err := RunCtx(context.Background(), chip, ro)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Telemetry.Counters["ckpt.hit"]; n != 0 {
		t.Errorf("run with different options hit %d foreign checkpoints", n)
	}
	if n := got.Telemetry.Counters["ckpt.miss"]; n < 1 {
		t.Errorf("expected misses on foreign fingerprint, got %d", n)
	}
}

// TestFingerprintSeparatesPyramid pins the checkpoint contract for the
// coarse-to-fine search option: Register.Pyramid is result-affecting
// (the selected shifts may differ from exhaustive), so it must change
// the fingerprint — a resumed run never loads artifacts computed under
// a different search strategy — while worker count still must not.
func TestFingerprintSeparatesPyramid(t *testing.T) {
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions()
	base.Ckpt = store
	ref, err := newCkptRef("B4", base)
	if err != nil {
		t.Fatal(err)
	}
	pyr := base
	pyr.Register.Pyramid = 3
	pyrRef, err := newCkptRef("B4", pyr)
	if err != nil {
		t.Fatal(err)
	}
	if ref.fp == pyrRef.fp {
		t.Errorf("Pyramid option must change the checkpoint fingerprint")
	}
	par := base
	par.Workers = 7
	par.Register.Workers = 3
	parRef, err := newCkptRef("B4", par)
	if err != nil {
		t.Fatal(err)
	}
	if ref.fp != parRef.fp {
		t.Errorf("worker counts must not change the checkpoint fingerprint")
	}
}

// TestRunCtxCancelled asserts prompt cooperative cancellation: a
// pre-cancelled context fails fast and the error unwraps to the
// context's own error.
func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, chips.ByID("B4"), resumeOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidRun cancels shortly after the run starts — while
// acquisition or the denoise fan-out is in flight, both far longer than
// the cancel delay — and asserts the run aborts with the context error
// instead of completing.
func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := resumeOptions()
	o.Workers = 2
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := RunCtx(ctx, chips.ByID("B4"), o)
	if err == nil {
		t.Fatal("cancelled run completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStandaloneReconstructNoUnitNoCheckpoints asserts that only RunCtx
// and RunOnDieCtx checkpoint: a standalone ReconstructCtx or PlanarViewsCtx
// has no unit to key under — the options alone cannot reproduce the
// acquisition it is handed — so it never touches the store, even with
// Ckpt and Resume set.
func TestStandaloneReconstructNoUnitNoCheckpoints(t *testing.T) {
	acq, window := testAcquisition(t)
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := fastOptions()
	o.Denoiser = "none"
	o.Ckpt = store
	o.Resume = true
	o.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	if _, _, err := ReconstructCtx(context.Background(), acq, window, o); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanarViewsCtx(context.Background(), acq, o); err != nil {
		t.Fatal(err)
	}
	var files []string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".ckpt") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("standalone ReconstructCtx/PlanarViewsCtx wrote checkpoints: %v", files)
	}
	for name, n := range o.Obs.Snapshot().Counters {
		if strings.HasPrefix(name, "ckpt.") {
			t.Errorf("standalone ReconstructCtx/PlanarViewsCtx consulted the store: %s = %d", name, n)
		}
	}
}
