package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/img"
)

// reconSpec is a closed-loop workload of back-to-back extractions of one
// chip, with one client.
type reconSpec struct {
	chip   string
	faults bool
}

var (
	// reconClean: the fully streaming engine on the deepest stack.
	reconClean = reconSpec{chip: "B4"}
	// reconFaults: fault-injected runs, which take the materializing
	// path, on the OCSA topology.
	reconFaults = reconSpec{chip: "B5", faults: true}
)

// faultSeedSet is the fixed set of fault seeds every recon-faults run
// cycles through: the first four, starting with `extract -fault-seed`'s
// default, less those pinned in knownDefects. A run covers the whole
// set, so every run sees the same inputs and its fidelity figures do
// not depend on the workload seed.
var faultSeedSet = func() []int64 {
	var set []int64
	for _, s := range []int64{1, 2, 3, 4} {
		if !knownDefect("recon-faults", reconFaults.chip, s) {
			set = append(set, s)
		}
	}
	return set
}()

// knownDefects pins the inputs the program is known to get wrong at the
// commit the benchmark was defined on. The workloads leave them out, so
// that no operation fails on a correct program; TestKnownDefects checks
// that each still fails. When one is fixed, delete its entry and the
// input rejoins its workload.
var knownDefects = []struct {
	workload, chip string
	faultSeed      int64
	why            string
}{
	// The quality gate flags 15 slices but only 14 of the 15 injected
	// ones (recall 93%): the extraction reads the classic topology
	// with 60/52 transistors.
	{"recon-faults", "B5", 4, "wrong topology after fault seed 4"},
	// The fast profile (1 unit, 8 nm voxels, 8 denoise iterations)
	// loses B5's latches.
	{"serve-mix", "B5", 0, "netex: no bitline-connected latch blocks"},
}

// knownDefect reports whether workload on chip with the given fault seed
// (0 for none) is pinned in knownDefects.
func knownDefect(workload, chip string, faultSeed int64) bool {
	for _, d := range knownDefects {
		if d.workload == workload && d.chip == chip && d.faultSeed == faultSeed {
			return true
		}
	}
	return false
}

// extractOptions sets the pipeline up the way `hifidram extract -chip X`
// does with its default flags: core.DefaultOptions, 4 nm voxels, 12 µs
// dwell, exhaustive alignment, one buffer pool for the process and no
// checkpoint store.
func extractOptions(workers int, pool *img.Pool) core.Options {
	o := core.DefaultOptions()
	o.VoxelNM = 4
	o.SEM.DwellUS = 12
	o.Workers = workers
	o.Register.Pyramid = 0
	o.Pool = pool
	return o
}

// reconOp is operation k of a run: the set-up extraction is k = 0.
type reconOp struct {
	spec reconSpec
	chip *chips.Chip
	// cycle is faultSeedSet in the order the workload seed shuffles it;
	// operation k injects with cycle[k % len(cycle)].
	cycle []int64
	o     core.Options
}

func newReconOp(spec reconSpec, seed int64, workers int) (*reconOp, error) {
	chip := chips.ByID(spec.chip)
	if chip == nil {
		return nil, fmt.Errorf("unknown chip %q", spec.chip)
	}
	cycle := append([]int64(nil), faultSeedSet...)
	rand.New(rand.NewSource(seed)).Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return &reconOp{
		spec: spec, chip: chip, cycle: cycle,
		o: extractOptions(workers, img.NewPool()),
	}, nil
}

// faultSeed is operation k's fault seed, 0 without faults.
func (r *reconOp) faultSeed(k int) int64 {
	if !r.spec.faults {
		return 0
	}
	return r.cycle[k%len(r.cycle)]
}

// options returns operation k's pipeline options.
func (r *reconOp) options(k int) core.Options {
	o := r.o
	if seed := r.faultSeed(k); seed != 0 {
		p := fault.DefaultPlan()
		p.Seed = seed
		o.Faults = &p
	}
	return o
}

// verify checks one operation's output: the extracted topology and the
// bitline count must match the ground truth.
func verify(res *core.Result) error {
	if !res.Score.TopologyCorrect {
		return fmt.Errorf("%s: topology %v, want %v", res.Chip.ID, res.Extraction.Topology, res.Truth.Topology)
	}
	if !res.Score.BitlinesCorrect {
		return fmt.Errorf("%s: %d bitlines, want %d", res.Chip.ID, res.Extraction.Bitlines, res.Truth.Bitlines)
	}
	return nil
}

// tally counts attempted and failed operations and the fidelity of the
// ones that succeeded.
type tally struct {
	attempted, failed int
	correct           bool
	fid               fidelity
}

// record checks one finished operation and reports whether it
// succeeded. Each fault seed is a distinct input for the fidelity
// averages.
func (t *tally) record(op *reconOp, k int, res *core.Result, err error) bool {
	t.attempted++
	if err == nil {
		err = verify(res)
	}
	seed := op.faultSeed(k)
	if err != nil {
		t.failed++
		t.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: operation %d (fault seed %d) failed: %v\n", k, seed, err)
		return false
	}
	t.fid.add(fmt.Sprintf("%s/fault-seed-%d", op.chip.ID, seed), 100*res.Score.MeanRelErr,
		len(res.Extraction.Transistors), res.Truth.TransistorCount, true)
	return true
}

func runRecon(cfg config, spec reconSpec) (*result, error) {
	ctx := context.Background()
	op, err := newReconOp(spec, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	t := &tally{correct: true}
	// Set-up: everything up to the first timed operation, including
	// the first (cold) extraction — what one `hifidram extract` costs.
	t0 := time.Now()
	res, err := core.RunCtx(ctx, op.chip, op.options(0))
	setup := time.Since(t0)
	t.record(op, 0, res, err)

	if cfg.trace {
		return traceRecon(ctx, cfg, op, t)
	}
	// With faults, the set-up run and the timed ones cover every fault
	// seed of the cycle even when the host is slow.
	minOps := 0
	if spec.faults && cfg.ops == 0 {
		minOps = len(op.cycle) - 1
	}
	var durs []float64
	n := 0
	start := time.Now()
	for k := 1; n < minOps || cfg.more(start, n); k++ {
		t1 := time.Now()
		res, err := core.RunCtx(ctx, op.chip, op.options(k))
		d := secs(time.Since(t1))
		n++
		if t.record(op, k, res, err) {
			durs = append(durs, d)
		}
	}
	elapsed := time.Since(start)

	r := &result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed}
	r.set("setup_s", secs(setup), "s")
	r.set("op_p50_s", median(durs), "s")
	r.set("op_p90_s", quantile(durs, 0.9), "s")
	r.set("ops_per_s", float64(n)/secs(elapsed), "1/s")
	r.set("peak_rss_mb", peakRSSMB(), "MiB")
	t.fid.report(r)
	return r, nil
}

// traceRecon is the traced run: it alternates an untraced and a traced
// extraction (core.RunCtx with the program's observer on) until the time
// is up, then walks the layers once. The first traced extraction
// supplies the counters; the two medians give the tracing overhead.
func traceRecon(ctx context.Context, cfg config, op *reconOp, t *tally) (*result, error) {
	r := newLayerResult()
	var plain, traced []float64
	start := time.Now()
	for k := 1; cfg.more(start, len(plain)); k++ {
		o := op.options(k)
		t1 := time.Now()
		res, err := core.RunCtx(ctx, op.chip, o)
		plain = append(plain, secs(time.Since(t1)))
		t.record(op, k, res, err)
		t1 = time.Now()
		res, err = tracedRun(ctx, op.chip, o)
		traced = append(traced, secs(time.Since(t1)))
		t.record(op, k, res, err)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			setCounters(r, res)
		}
	}
	setPool(r, op.o.Pool.Stats())
	tr := newTracer()
	root := tr.start("walk "+op.chip.ID, 0, 0)
	err := walkLayers(ctx, tr, root, op.chip, op.options(1), r)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	setWalkTimes(r, tr)
	r.setLayer("obs.trace_overhead_pct", pct(median(traced)-median(plain), median(plain)))
	r.Correct, r.Attempted, r.Failed = t.correct, t.attempted, t.failed
	return r, writeTrace(tr, cfg)
}

// writeTrace exports a traced run's spans next to the work directory.
func writeTrace(tr *tracer, cfg config) error {
	return tr.writeChrome(filepath.Join(filepath.Dir(cfg.workDir), "trace-"+cfg.workload+".json"))
}
