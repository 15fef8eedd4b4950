package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/layout"
	"repro/internal/netex"
)

// TestMemorySmoke is the process under scripts/memory_smoke.sh (`make
// memory-smoke`), not a normal unit test: it runs only when the
// HIFIDRAM_MEMORY_SMOKE environment variable selects a mode, so plain
// `go test ./internal/core` skips it. The script runs the compiled test
// binary three times on the same deterministic 384-slice stack —
//
//	mode "reference": the whole-stack reference implementation
//	(reference_test.go), in a process with no memory limit;
//	mode "stream":    the pooled streaming reconstruction, in a process
//	under a hard GOMEMLIMIT a reference-sized heap would thrash against;
//	mode "ckpt":      the same streaming reconstruction with a
//	checkpoint store attached and Resume on — serve's wiring — under
//	the same limit;
//
// — each writing a canonical result fingerprint to the file named by
// HIFIDRAM_MEMORY_SMOKE_OUT. The script asserts every process exits 0
// and the fingerprints match: the streaming pipeline completes inside
// the limit, checkpointed or not, and stays byte-identical to the
// reference.
func TestMemorySmoke(t *testing.T) {
	mode := os.Getenv("HIFIDRAM_MEMORY_SMOKE")
	if mode == "" {
		t.Skip("set HIFIDRAM_MEMORY_SMOKE=reference|stream|ckpt (driven by scripts/memory_smoke.sh)")
	}
	out := os.Getenv("HIFIDRAM_MEMORY_SMOKE_OUT")
	if out == "" {
		t.Fatal("HIFIDRAM_MEMORY_SMOKE_OUT not set")
	}
	const depth, width = 384, 48
	acq := syntheticStack(depth, width)
	window := geom.R(0, 0, width*8, depth*8)
	o := deepOptions()
	var plan *netex.Plan
	var info ReconInfo
	var err error
	switch mode {
	case "reference":
		o.Workers = 1
		plan, info, _, err = referenceReconstruct(context.Background(), acq, window, o)
	case "stream", "ckpt":
		o.Workers = 4
		o.Pool = img.NewPool()
		if mode == "ckpt" {
			store, serr := ckpt.Open(t.TempDir())
			if serr != nil {
				t.Fatal(serr)
			}
			o.Ckpt, o.Resume, o.CkptUnit = store, true, "memory-smoke"
		}
		plan, info, err = Reconstruct(acq, window, o)
	default:
		t.Fatalf("HIFIDRAM_MEMORY_SMOKE = %q, want reference, stream or ckpt", mode)
	}
	if err != nil {
		t.Fatalf("%s reconstruction: %v", mode, err)
	}
	if o.Pool != nil {
		if live := o.Pool.Stats().Live; live != 0 {
			t.Fatalf("%d pool buffers leaked", live)
		}
	}
	if o.Ckpt != nil {
		entries, serr := o.Ckpt.Scan()
		if serr != nil || len(entries) != 1 || entries[0].Key.Stage != CkptPlan {
			t.Fatalf("checkpointed run must persist exactly its plan: %v %+v", serr, entries)
		}
	}
	fp := smokeFingerprint(plan, info)
	if err := os.WriteFile(out, []byte(fp+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %s", mode, fp)
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
