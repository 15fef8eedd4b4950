package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/layout"
	"repro/internal/netex"
	"repro/internal/obs"
)

// TestMemorySmoke is the process under scripts/memory_smoke.sh (`make
// memory-smoke`), not a normal unit test: it runs only when the
// HIFIDRAM_MEMORY_SMOKE environment variable selects a mode, so plain
// `go test ./internal/core` skips it. The script runs the compiled test
// binary in four processes —
//
//	mode "reference": the whole-stack reference implementation
//	(reference_test.go) on a deterministic 384-slice stack, in a
//	process with no memory limit;
//	mode "stream":    the pooled streaming reconstruction of the same
//	stack, in a process under a hard GOMEMLIMIT a reference-sized heap
//	would thrash against;
//	mode "run" (twice, fresh then resumed): RunCtx on B4 wired the way
//	serve runs a job — a buffer pool and a checkpoint store in the
//	"run-ckpt" directory next to the output file — under the same
//	limit;
//
// — each writing a canonical result fingerprint to the file named by
// HIFIDRAM_MEMORY_SMOKE_OUT. The script asserts every process exits 0
// and the stream fingerprint matches the reference: the streaming
// pipeline completes inside the limit and stays byte-identical to the
// reference. Each run process itself asserts that the store holds
// exactly one netex entry and that its fingerprint is the committed
// clean B4 golden.
func TestMemorySmoke(t *testing.T) {
	mode := os.Getenv("HIFIDRAM_MEMORY_SMOKE")
	if mode == "" {
		t.Skip("set HIFIDRAM_MEMORY_SMOKE=reference|stream|run (driven by scripts/memory_smoke.sh)")
	}
	out := os.Getenv("HIFIDRAM_MEMORY_SMOKE_OUT")
	if out == "" {
		t.Fatal("HIFIDRAM_MEMORY_SMOKE_OUT not set")
	}
	var fp string
	switch mode {
	case "reference", "stream":
		fp = memorySmokeStack(t, mode)
	case "run":
		fp = memorySmokeRun(t, filepath.Join(filepath.Dir(out), "run-ckpt"))
	default:
		t.Fatalf("HIFIDRAM_MEMORY_SMOKE = %q, want reference, stream or run", mode)
	}
	if err := os.WriteFile(out, []byte(fp+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %s", mode, fp)
}

// memorySmokeStack reconstructs the deterministic 384-slice stack with
// the reference ("reference") or the pooled streaming engine ("stream")
// and returns the result's fingerprint.
func memorySmokeStack(t *testing.T, mode string) string {
	const depth, width = 384, 48
	acq := syntheticStack(depth, width)
	window := geom.R(0, 0, width*8, depth*8)
	o := deepOptions()
	var plan *netex.Plan
	var info ReconInfo
	var err error
	if mode == "reference" {
		o.Workers = 1
		plan, info, _, err = referenceReconstruct(context.Background(), acq, window, o)
	} else {
		o.Workers = 4
		o.Pool = img.NewPool()
		plan, info, err = ReconstructCtx(context.Background(), acq, window, o)
	}
	if err != nil {
		t.Fatalf("%s reconstruction: %v", mode, err)
	}
	if o.Pool != nil {
		if live := o.Pool.Stats().Live; live != 0 {
			t.Fatalf("%d pool buffers leaked", live)
		}
	}
	return smokeFingerprint(plan, info)
}

// memorySmokeRun runs B4 under the fast profile the way serve's
// runPipeline does — a shared buffer pool and a checkpoint store —
// against the store in dir. A store that already holds the
// extraction must be resumed from; either way it must end up holding
// exactly that one netex entry, and the result must be the committed
// clean B4 golden.
func memorySmokeRun(t *testing.T, dir string) string {
	chip := chips.ByID("B4")
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	o := goldenOptions(chip, false)
	o.Workers = 4
	o.Pool = img.NewPool()
	o.Ckpt = store
	o.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	res, err := RunCtx(context.Background(), chip, o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if live := o.Pool.Stats().Live; live != 0 {
		t.Fatalf("%d pool buffers leaked", live)
	}
	entries, err := store.Scan()
	if err != nil || len(entries) != 1 || entries[0].Key.Stage != CkptNetex || entries[0].Err != nil {
		t.Fatalf("checkpointed run must persist exactly its extraction: %v %+v", err, entries)
	}
	if got, want := res.Telemetry.Counters["ckpt.resumed."+CkptNetex], int64(len(before)); got != want {
		t.Fatalf("ckpt.resumed.%s = %d with %d entries in the store beforehand", CkptNetex, got, want)
	}
	fp := smokeFingerprint(res.Plan, ReconInfo{
		ResidualDriftPx: res.ResidualDriftPx,
		Repairs:         res.Repairs,
		AlignFallbacks:  res.AlignFallbacks,
	})
	if want := goldenFingerprint(t, chip.ID, false); fp != want {
		t.Fatalf("fingerprint %s, want the committed golden %s", fp, want)
	}
	return fp
}

// smokeFingerprint hashes a reconstruction result canonically: layers
// in sorted order (Plan.ByLayer is a map, so gob order would not
// reproduce across processes), rectangles in their deterministic plan
// order, and the full ReconInfo including every repair record.
func smokeFingerprint(plan *netex.Plan, info ReconInfo) string {
	h := sha256.New()
	fmt.Fprintf(h, "info %+v\nbounds %v\n", info, plan.Bounds)
	layers := make([]int, 0, len(plan.ByLayer))
	for l := range plan.ByLayer {
		layers = append(layers, int(l))
	}
	sort.Ints(layers)
	for _, l := range layers {
		fmt.Fprintf(h, "layer %d\n", l)
		for _, r := range plan.ByLayer[layout.Layer(l)] {
			fmt.Fprintf(h, "%d %d %d %d\n", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
