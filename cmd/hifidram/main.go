// Command hifidram drives the end-to-end reverse-engineering pipeline on
// the synthetic chips:
//
//	hifidram generate -chip C4            summarize the ground-truth region
//	hifidram gds -chip C4 -o c4.gds       export the region layout as GDSII
//	hifidram roi -chip C4                 run the blind ROI identification (Fig. 6)
//	hifidram extract -chip C4             run the full imaging + extraction pipeline
//	hifidram extract -all                 run it on all six chips (fanned out in parallel)
//	hifidram extract -chip C4 -gds out.gds   also export the extracted layout
//	hifidram extract -chip C4 -die        run the die-level flow: blind ROI
//	                                      identification first, then image and
//	                                      extract only the identified region
//	hifidram extract -chip C4 -faults     corrupt the acquisition with the default
//	                                      fault plan and report the quality gate's
//	                                      detection recall (-fault-seed varies the draw)
//	hifidram planar -chip C4 -o dir       write the reconstructed planar views as PGM
//	hifidram serve localhost:8080         run the reconstruction job service: an
//	                                      HTTP/JSON API that queues extraction jobs
//	                                      into a worker pool and dedupes identical
//	                                      submissions through a shared result cache
//	hifidram ckpt -dir ckpts              verify a checkpoint store's checksums
//	hifidram tracecheck out.json          validate a trace file covers every stage
//
// extract and planar accept -workers N to bound the reconstruction
// worker pool (0, the default, uses every core), -pyramid N to switch
// slice alignment to the coarse-to-fine pyramid search (opt-in: the
// selected shifts may differ from the default exhaustive scan), plus
// the observability flags: -trace out.json writes a Chrome trace-event file (loadable in
// Perfetto or chrome://tracing), -stats prints a per-stage wall-time
// table to stderr, -v / -vv enable structured progress / per-slice
// detail logs, and -pprof ADDR serves net/http/pprof and the run's
// metrics as Prometheus text on /metrics. None
// of these perturb the pipeline: the output is byte-identical for any
// worker count, with or without observability.
//
// Both also accept the crash-safety flags: -ckpt-dir DIR persists each
// chip's finished extraction as an atomic, checksummed checkpoint and
// loads a verified one back (corrupt or stale entries are recomputed,
// never served), so a repeated run images nothing and produces
// byte-identical output. The store is always read: its key names the
// engine version, so a build whose output differs must bump it or be
// served the older build's bytes. planar runs the same pipeline as
// extract but images at the 3 us default dwell, where extract's -dwell
// defaults to 12 us; the dwell is part of the checkpoint key, so planar
// resumes from extract's checkpoint only after "extract -dwell 3" with
// the same -ckpt-dir. extract additionally
// takes -timeout (per-chip deadline); with -all each chip runs supervised
// and isolated — one failure never aborts the rest — with per-chip
// status lines after the table. SIGINT/SIGTERM cancel cooperatively:
// the run stops at the next unit of work, flushes checkpoints and
// trace, and exits 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/gds"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sem"
	"repro/internal/serve"
	"repro/internal/supervise"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the command context: every pipeline stage
	// checks it between units of work, so an interrupted run stops at
	// the next slice/candidate/layer boundary, flushes its checkpoints
	// and trace (both written as the run goes / in deferred finishers),
	// and exits cleanly instead of dying mid-write. A second signal
	// kills the process the default way (stop() restores the default
	// disposition once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = runGenerate(args)
	case "gds":
		err = runGDS(args)
	case "roi":
		err = runROI(args)
	case "extract":
		err = runExtract(ctx, args)
	case "planar":
		err = runPlanar(ctx, args)
	case "serve":
		err = runServe(ctx, args)
	case "top":
		err = runTop(ctx, args)
	case "metricscheck":
		err = runMetricsCheck(ctx, args)
	case "ckpt":
		err = runCkpt(args)
	case "journal":
		err = runJournal(args)
	case "tracecheck":
		err = runTraceCheck(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hifidram:", err)
		if errors.Is(err, context.Canceled) {
			// Conventional "terminated by SIGINT" exit status.
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: hifidram <command> [flags]

commands:
  generate    summarize a chip's ground-truth SA region (-chip, -units)
  gds         export the ground-truth layout as GDSII (-chip, -o)
  roi         blind ROI identification on the die strip (-chip, -voxel)
  extract     full imaging + extraction pipeline (-chip | -all, -die,
              -faults, -fault-seed, -gds, -voxel, -dwell, -workers,
              -pyramid)
  planar      run the extraction pipeline on one chip and write its
              reconstructed planar views as PGM (-chip, -o, -voxel,
              -workers, -pyramid); it images at the 3 us default dwell
              and shares extract's checkpoint, so after "extract -dwell 3
              -ckpt-dir D" a "planar -ckpt-dir D" images nothing
  serve       run the reconstruction job service on ADDR: POST /v1/jobs
              submits {"chip": ..., "profile": ...}, GET /v1/jobs/{id}
              polls, /v1/jobs/{id}/artifacts/{name} fetches report.json,
              extracted.gds or views/<layer>.pgm; identical submissions
              dedupe to one computation via -cache-dir (-workers, -jobs,
              -queue, -timeout, -pprof, -v). -journal FILE
              makes accepted jobs durable: every submission is fsynced
              to the write-ahead journal before it is acknowledged, and
              on restart unfinished jobs are recovered and resubmitted.
              -cache-bytes N sweeps the cache LRU-first down to N bytes
              (live jobs' entries are pinned); -tenant-rate/-tenant-burst
              /-tenant-inflight set per-tenant admission limits (HTTP
              429 + Retry-After) and -tenant-weights biases the fair
              dequeue ("alice=3,bob=1"). GET /metrics serves a
              Prometheus text exposition and /readyz reports readiness
              (503 until journal recovery finishes), with latency
              histograms labeled by tenant and profile; -slo
              "tenant=avail[/latency];..." exports per-tenant error
              budget and burn-rate gauges, and -log-format json switches
              the -v/-vv logs to JSON lines. Overload resilience:
              -shed-target D sheds fresh computations while standing
              queue delay exceeds 2D (503 + drain-rate Retry-After);
              -disk-hard BYTES guards the journal filesystem (HTTP 507
              and a cache sweep); a job's deadline_ms field or
              X-Job-Deadline-Ms header sheds work nobody is waiting for.
              With -cache-dir, a run that fails deterministically stores
              its error, and an identical request fails at once without
              a run. -failpoints SPEC (testing) injects
              deterministic faults at named sites
  top         live fleet view of a serve instance: poll ADDR's /metrics
              and render queue occupancy, throughput and per-tenant
              latency quantiles + SLO burn (-interval, -once)
  metricscheck  validate a Prometheus exposition from FILE, URL or "-"
              (strict: typed families, complete cumulative histograms);
              -require NAMES asserts specific series are present
  ckpt        verify a checkpoint store: scan -dir, check every entry's
              checksum, report corrupt/stray files (nonzero exit on any);
              "ckpt gc -dir DIR -budget BYTES" sweeps the store LRU-first
              down to the byte budget
  journal     "journal fsck FILE" verifies a serve job journal frame by
              frame and summarizes the replayed job table; a torn tail
              (normal after a crash) is reported but not an error
  tracecheck  validate a -trace file: parses as Chrome trace JSON,
              covers every pipeline stage, and is balanced (no span
              begun but never ended, no partial overlap on a lane)

extract and planar also take -pyramid N to align with the coarse-to-fine
pyramid search (N resolution levels; 0 or 1, the default, keeps the
exhaustive scan — shifts may differ from exhaustive by design, and the
checkpoint fingerprint changes accordingly), and the observability flags:
  -trace FILE   write a Chrome trace-event JSON file (Perfetto-loadable)
  -stats        print a per-stage wall-time table to stderr
  -v / -vv      structured progress / per-slice detail logs on stderr
  -pprof ADDR   serve net/http/pprof and /metrics on ADDR

and the crash-safety flags:
  -ckpt-dir DIR checkpoint each finished extraction into DIR (atomic,
                checksummed) and load a verified one back instead of
                recomputing; corrupt or stale entries are recomputed
  -timeout D    per-chip deadline (extract; e.g. 10m)

SIGINT/SIGTERM cancel the run at the next unit of work, flush
checkpoints and trace, and exit with status 130.

run "hifidram <command> -h" for the full flag list of a command.
`)
}

func chipFlag(fs *flag.FlagSet) *string {
	return fs.String("chip", "C4", "chip ID (A4, B4, C4, A5, B5, C5)")
}

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size for the reconstruction hot path (0 = all cores)")
}

func pyramidFlag(fs *flag.FlagSet) *int {
	return fs.Int("pyramid", 0, "coarse-to-fine alignment pyramid levels (0/1 = exhaustive search; try 3)")
}

// obsFlags are the observability flags shared by extract and planar.
type obsFlags struct {
	trace string
	stats bool
	v, vv bool
	pprof string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	fs.BoolVar(&f.stats, "stats", false, "print a per-stage wall-time table to stderr when done")
	fs.BoolVar(&f.v, "v", false, "log pipeline progress to stderr")
	fs.BoolVar(&f.vv, "vv", false, "log per-slice detail to stderr (implies -v)")
	fs.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	return f
}

// build assembles the observer the flags ask for and the finish function
// that writes the trace file and stats table once the run completes.
// With no observability flag set it returns a nil observer — the
// pipeline's zero-overhead path — and a no-op finish.
func (f *obsFlags) build() (*obs.Observer, func() error) {
	if f.trace == "" && !f.stats && !f.v && !f.vv && f.pprof == "" {
		return nil, func() error { return nil }
	}
	ob := &obs.Observer{Metrics: obs.NewMetrics()}
	if f.trace != "" || f.stats {
		ob.Trace = obs.NewTrace()
	}
	if f.v || f.vv {
		lvl := slog.LevelInfo
		if f.vv {
			lvl = slog.LevelDebug
		}
		ob.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	if f.pprof != "" {
		// A dedicated mux and server with explicit timeouts — never the
		// bare ListenAndServe(addr, nil) idiom, which exposes the global
		// DefaultServeMux (and whatever anyone registered on it) with no
		// header/read deadlines at all.
		go func() {
			srv := serve.NewDebugServer(f.pprof, ob.Metrics)
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "hifidram: pprof:", err)
			}
		}()
	}
	finish := func() error {
		if f.trace != "" {
			err := ckpt.WriteFileAtomic(f.trace, func(w io.Writer) error {
				return ob.Trace.WriteChrome(w)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", f.trace)
		}
		if f.stats {
			if err := obs.WriteSummary(os.Stderr, ob.Trace); err != nil {
				return err
			}
			writeCounters(os.Stderr, ob.Snapshot())
		}
		return nil
	}
	return ob, finish
}

// writeCounters prints the deterministic counter section of a metric
// snapshot, sorted by name.
func writeCounters(w *os.File, snap *obs.Snapshot) {
	if snap == nil || len(snap.Counters) == 0 {
		return
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "counters:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %d\n", name, snap.Counters[name])
	}
}

func lookup(id string) (*chips.Chip, error) {
	c := chips.ByID(id)
	if c == nil {
		return nil, fmt.Errorf("unknown chip %q", id)
	}
	return c, nil
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	id := chipFlag(fs)
	units := fs.Int("units", 2, "SA units per band")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := lookup(*id)
	if err != nil {
		return err
	}
	cfg := chipgen.DefaultConfig(c)
	cfg.Units = *units
	r, err := chipgen.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("chip %s (%s, %s): %d shapes, %d transistors, %d bitlines at %d nm pitch\n",
		c.ID, c.Gen, c.Topology, len(r.Cell.Shapes), r.Truth.TransistorCount,
		r.Truth.Bitlines, r.Truth.PitchNM)
	fmt.Printf("region: %d x %d nm, M2-routed bitlines: %v\n",
		r.Truth.RegionBounds.W(), r.Truth.RegionBounds.H(), r.Truth.M2RoutedBitlines)
	fmt.Println("SA1 blocks:")
	for _, b := range r.Truth.BlocksSA1 {
		fmt.Printf("  %-8s x = %6d .. %6d nm\n", b.Name, b.X0, b.X1)
	}
	return nil
}

func runGDS(args []string) error {
	fs := flag.NewFlagSet("gds", flag.ExitOnError)
	id := chipFlag(fs)
	out := fs.String("o", "", "output file (default <chip>.gds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := lookup(*id)
	if err != nil {
		return err
	}
	r, err := chipgen.Generate(chipgen.DefaultConfig(c))
	if err != nil {
		return err
	}
	s, err := gds.FromCell(r.Cell)
	if err != nil {
		return err
	}
	lib := gds.NewLibrary("HIFIDRAM_" + c.ID)
	lib.Structs = []gds.Structure{s}
	path := *out
	if path == "" {
		path = c.ID + ".gds"
	}
	if err := ckpt.WriteFileAtomic(path, lib.Write); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d boundaries on %d layers\n", path, len(s.Boundaries), 7)
	return nil
}

func runROI(args []string) error {
	fs := flag.NewFlagSet("roi", flag.ExitOnError)
	id := chipFlag(fs)
	voxel := fs.Int64("voxel", 8, "voxel size (nm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := lookup(*id)
	if err != nil {
		return err
	}
	die, err := chipgen.GenerateDie(chipgen.DefaultConfig(c))
	if err != nil {
		return err
	}
	vol, err := chipgen.Voxelize(die.Cell, die.Cell.Bounds(), *voxel)
	if err != nil {
		return err
	}
	opts := sem.DefaultOptions()
	opts.Detector = c.Detector
	roi, zones, err := sem.FindROI(vol, opts, 8)
	if err != nil {
		return err
	}
	fmt.Printf("blind scan of %s die strip (%d probes wide):\n", c.ID, vol.NX)
	for _, z := range zones {
		fmt.Printf("  %-6s %6d .. %6d nm (width %d nm)\n",
			z.Kind, int64(z.X0)**voxel, int64(z.X1)**voxel, int64(z.WidthVox())**voxel)
	}
	fmt.Printf("identified ROI (SA region): %d .. %d nm\n",
		int64(roi.X0)**voxel, int64(roi.X1)**voxel)
	fmt.Printf("ground truth SA region:     %d .. %d nm\n", die.SA[0], die.SA[1])
	return nil
}

func runExtract(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	id := chipFlag(fs)
	all := fs.Bool("all", false, "run on all six chips")
	voxel := fs.Int64("voxel", 4, "voxel size (nm)")
	dwell := fs.Float64("dwell", 12, "SEM dwell time (us)")
	gdsOut := fs.String("gds", "", "export the extracted (annotated) layout as GDSII to this file")
	die := fs.Bool("die", false, "run the full die-level flow: blind ROI identification, then extract the ROI only")
	faults := fs.Bool("faults", false, "corrupt the acquisition with the default fault plan and score the quality gate")
	faultSeed := fs.Int64("fault-seed", 1, "fault injection seed (with -faults)")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint the finished extraction into this directory (atomic, checksummed) and load a verified one back instead of recomputing")
	timeout := fs.Duration("timeout", 0, "per-chip deadline (0 = none)")
	workers := workersFlag(fs)
	pyramid := pyramidFlag(fs)
	obf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*ckptDir)
	if err != nil {
		return err
	}
	var list []*chips.Chip
	if *all {
		list = chips.All()
	} else {
		c, err := lookup(*id)
		if err != nil {
			return err
		}
		list = []*chips.Chip{c}
	}
	// Split the worker budget between the chip fan-out and each chip's
	// own pipeline pool so -all doesn't oversubscribe the machine.
	fan, inner := par.SplitBudget(*workers, len(list))
	ob, finishObs := obf.build()
	// The trace flushes in a deferred finisher so an interrupted or
	// failed campaign still writes what it observed.
	defer func() {
		if err := finishObs(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	// Per-chip rows buffer into index-addressed builders so the table
	// prints in chip order regardless of completion order. The supervisor
	// isolates each chip: a panic, error or blown deadline in one never
	// aborts the others, and every chip's outcome lands in its status.
	rows := make([]strings.Builder, len(list))
	// results keeps each chip's pipeline result so the -gds export can
	// reuse the run's own extraction plan instead of reconstructing a
	// second time (each index is written by one chip's worker only).
	results := make([]*core.Result, len(list))
	names := make([]string, len(list))
	for i, c := range list {
		names[i] = c.ID
	}
	// One shared buffer pool across the chip fan-out: the streaming
	// reconstructions recycle slice buffers between chips as well as
	// between slices (the pool is concurrency-safe, and pooling never
	// changes results).
	pool := img.NewPool()
	statuses, runErr := supervise.Run(ctx, names, func(ctx context.Context, i int) error {
		c := list[i]
		o := core.DefaultOptions()
		o.VoxelNM = *voxel
		o.SEM.DwellUS = *dwell
		o.Workers = inner
		o.Register.Pyramid = *pyramid
		o.Ckpt = store
		o.Pool = pool
		if *faults {
			p := fault.DefaultPlan()
			p.Seed = *faultSeed
			o.Faults = &p
		}
		// Each chip's spans nest under a per-chip span and render on
		// their own block of trace lanes (1 pipeline lane, the streaming
		// stage lanes and inner worker lanes per chip), so concurrent
		// -all runs stay readable.
		co := ob.WithLane(i * (inner + 8))
		chipSpan := co.StartSpan("chip " + c.ID)
		defer chipSpan.End()
		o.Obs = co.WithSpan(chipSpan)
		var res *core.Result
		var err error
		if *die {
			var dres *core.DieResult
			dres, err = core.RunOnDieCtx(ctx, c, o)
			if err == nil {
				fmt.Fprintf(&rows[i], "(ROI found %v vs true %v, IoU %.2f)\n",
					dres.ROI, dres.TrueROI, dres.ROIOverlap)
				res = dres.Pipeline
			}
		} else {
			res, err = core.RunCtx(ctx, c, o)
		}
		if err != nil {
			// The supervisor prefixes the chip ID into the campaign error.
			return err
		}
		results[i] = res
		fmt.Fprintf(&rows[i], "%s\t%v\t%v\t%d/%d\t%d/%d\t%.1f%%\t%d\t%.1fh\n",
			c.ID, res.Extraction.Topology, res.Score.TopologyCorrect,
			res.Extraction.Bitlines, res.Truth.Bitlines,
			len(res.Extraction.Transistors), res.Truth.TransistorCount,
			100*res.Score.MeanRelErr, res.SliceCount, res.CostHours)
		if res.Injected != nil {
			detected := detectedFaults(res)
			recall := 100.0
			if n := len(res.Injected.Injected); n > 0 {
				recall = 100 * float64(detected) / float64(n)
			}
			fmt.Fprintf(&rows[i], "(faults: injected %d, gate flagged %d, recall %.0f%%, align fallbacks %d)\n",
				len(res.Injected.Injected), len(res.Repairs.Repairs), recall, res.AlignFallbacks)
		}
		if !*all {
			fmt.Fprintf(&rows[i], "(element order: %v)\n", res.Extraction.Blocks)
		}
		return nil
	}, supervise.Options{Timeout: *timeout, Workers: fan, Obs: ob})
	// The table and per-chip statuses always print: a partial campaign's
	// successes are results, not collateral of the failures.
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "chip\ttopology found\tcorrect\tbitlines\ttransistors\tmean dim err\tslices\tsim cost")
	for i := range rows {
		fmt.Fprint(w, rows[i].String())
	}
	if *gdsOut != "" && !*all && runErr == nil {
		// The run's Result carries its extraction plan, so the annotated
		// layout exports directly: the file is the extraction the table
		// reports, faulted or die-cropped alike.
		data, err := serve.ExtractedGDSBytes(results[0])
		if err != nil {
			return err
		}
		err = ckpt.WriteFileAtomic(*gdsOut, func(w io.Writer) error {
			_, werr := w.Write(data)
			return werr
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "(extracted layout written to %s)\n", *gdsOut)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *all || runErr != nil {
		printStatuses(os.Stdout, statuses)
	}
	return runErr
}

// openStore opens the checkpoint store named by -ckpt-dir (nil when
// it is empty).
func openStore(dir string) (*ckpt.Store, error) {
	if dir == "" {
		return nil, nil
	}
	store, err := ckpt.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint store: %w", err)
	}
	return store, nil
}

// printStatuses renders the supervisor's per-chip report: one line per
// chip with wall time and outcome.
func printStatuses(w io.Writer, statuses []supervise.Status) {
	fmt.Fprintln(w, "status:")
	for _, st := range statuses {
		switch {
		case st.Err == nil:
			fmt.Fprintf(w, "  %-4s ok      (%v)\n",
				st.Name, st.Duration.Round(time.Millisecond))
		case !st.Started:
			fmt.Fprintf(w, "  %-4s skipped (%v)\n", st.Name, st.Err)
		default:
			fmt.Fprintf(w, "  %-4s FAILED  (%v): %v\n",
				st.Name, st.Duration.Round(time.Millisecond), st.Err)
		}
	}
}

// runTraceCheck validates a file written by -trace: it must parse as
// Chrome trace-event JSON, contain a complete ("X") span for every
// canonical pipeline stage, and be balanced — no begin ("B") event
// without a matching end, and no two complete spans on the same lane
// that partially overlap (siblings are disjoint, children nest). The
// trace writer exports a span that was never ended as a lone "B"
// event, so an unbalanced trace is the signature of a crashed or
// leaked span. The trace-smoke CI target runs this against a fresh
// extraction trace.
func runTraceCheck(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hifidram tracecheck trace.json")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid Chrome trace JSON: %w", path, err)
	}
	seen := make(map[string]bool)
	spans := 0
	type span struct {
		name    string
		ts, dur float64
	}
	open := make(map[int][]string) // per-lane stack of unended B names
	lanes := make(map[int][]span)  // per-lane complete spans
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			seen[e.Name] = true
			spans++
			lanes[e.TID] = append(lanes[e.TID], span{e.Name, e.TS, e.Dur})
		case "B":
			open[e.TID] = append(open[e.TID], e.Name)
		case "E":
			stack := open[e.TID]
			if len(stack) == 0 {
				return fmt.Errorf("%s: unbalanced trace: end event %q on lane %d without a begin",
					path, e.Name, e.TID)
			}
			open[e.TID] = stack[:len(stack)-1]
		}
	}
	var unended []string
	for _, stack := range open {
		unended = append(unended, stack...)
	}
	if len(unended) > 0 {
		sort.Strings(unended)
		return fmt.Errorf("%s: unbalanced trace: %d span(s) begun but never ended: %s",
			path, len(unended), strings.Join(unended, ", "))
	}
	// Complete spans on one lane must form a forest: each pair is either
	// disjoint or one contains the other. A partial overlap means two
	// spans claim the same wall time without nesting — a corrupted or
	// hand-edited trace. Sweep each lane in start order with a stack of
	// enclosing interval ends (a sub-microsecond epsilon absorbs the
	// nanosecond-to-microsecond rounding of the writer).
	const eps = 1e-3
	for tid, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].ts != spans[j].ts {
				return spans[i].ts < spans[j].ts
			}
			return spans[i].dur > spans[j].dur // containers before contents
		})
		var ends []float64
		for _, sp := range spans {
			for len(ends) > 0 && ends[len(ends)-1] <= sp.ts+eps {
				ends = ends[:len(ends)-1]
			}
			end := sp.ts + sp.dur
			if len(ends) > 0 && end > ends[len(ends)-1]+eps {
				return fmt.Errorf("%s: unbalanced trace: span %q on lane %d overlaps its neighbor without nesting",
					path, sp.name, tid)
			}
			ends = append(ends, end)
		}
	}
	var missing []string
	for _, stage := range core.Stages() {
		if !seen[stage] {
			missing = append(missing, stage)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: %d spans but missing stages: %s",
			path, spans, strings.Join(missing, ", "))
	}
	fmt.Printf("%s: ok — %d spans, balanced, all %d pipeline stages present\n",
		path, spans, len(core.Stages()))
	return nil
}

// detectedFaults counts the injected slices the quality gate flagged.
func detectedFaults(res *core.Result) int {
	flagged := make(map[int]bool, len(res.Repairs.Repairs))
	for _, r := range res.Repairs.Repairs {
		flagged[r.Index] = true
	}
	n := 0
	for _, inj := range res.Injected.Injected {
		if flagged[inj.Index] {
			n++
		}
	}
	return n
}

// runPlanar runs the extraction pipeline on one chip and writes its
// planar views, one PGM per fabrication layer — the images of Fig. 7d.
// The views are the Result's, so they come from the reconstruction the
// fidelity score judges. planar images at the 3 us default dwell, so
// it finds extract's checkpoint only when extract ran with
// -dwell 3 (and otherwise equal options).
func runPlanar(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("planar", flag.ExitOnError)
	id := chipFlag(fs)
	out := fs.String("o", ".", "output directory")
	voxel := fs.Int64("voxel", 4, "voxel size (nm)")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint the finished extraction into this directory (atomic, checksummed) and load a verified one back instead of recomputing")
	workers := workersFlag(fs)
	pyramid := pyramidFlag(fs)
	obf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := lookup(*id)
	if err != nil {
		return err
	}
	store, err := openStore(*ckptDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	o := core.DefaultOptions()
	o.VoxelNM = *voxel
	o.Workers = *workers
	o.Register.Pyramid = *pyramid
	o.Ckpt = store
	ob, finishObs := obf.build()
	defer func() {
		if err := finishObs(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	o.Obs = ob
	res, err := core.RunCtx(ctx, c, o)
	if err != nil {
		return err
	}
	views := res.Views
	names := make([]string, 0, len(views))
	for layerName := range views {
		names = append(names, layerName)
	}
	sort.Strings(names)
	for _, layerName := range names {
		view := views[layerName]
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.pgm", c.ID, layerName))
		view.Normalize()
		err := ckpt.WriteFileAtomic(path, func(w io.Writer) error {
			return img.WritePGM(w, view)
		})
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// runCkpt verifies a checkpoint store: every entry is read back through
// the full checksum/format validation and reported. Exits nonzero when
// anything is corrupt, so the crash-smoke harness can assert store
// health. "ckpt gc" instead sweeps the store down to a byte budget.
func runCkpt(args []string) error {
	if len(args) > 0 && args[0] == "gc" {
		return runCkptGC(args[1:])
	}
	fs := flag.NewFlagSet("ckpt", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("usage: hifidram ckpt -dir DIR")
	}
	store, err := ckpt.Open(*dir)
	if err != nil {
		return err
	}
	entries, err := store.Scan()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "key\tbytes\tstate")
	var corrupt int
	for _, e := range entries {
		state := "ok"
		if e.Err != nil {
			state = "CORRUPT: " + e.Err.Error()
			corrupt++
		}
		name := e.Key.String()
		if (e.Key == ckpt.Key{}) {
			// Header too damaged to recover the key; fall back to the path.
			name = e.Path
		}
		fmt.Fprintf(w, "%s\t%d\t%s\n", name, e.Bytes, state)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d checkpoint(s), %d corrupt\n", len(entries), corrupt)
	if corrupt > 0 {
		return fmt.Errorf("%d corrupt checkpoint(s) in %s", corrupt, *dir)
	}
	return nil
}

// runCkptGC sweeps a checkpoint store LRU-first down to a byte budget —
// the offline form of the sweep a running serve performs after each
// publish. Offline there are no live jobs, so nothing is pinned.
func runCkptGC(args []string) error {
	fs := flag.NewFlagSet("ckpt gc", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint store directory (required)")
	budget := fs.Int64("budget", 0, "byte budget to shrink the store to (required; 0 evicts everything unpinned)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("usage: hifidram ckpt gc -dir DIR -budget BYTES")
	}
	store, err := ckpt.Open(*dir)
	if err != nil {
		return err
	}
	res, err := store.GC(*budget, nil)
	if err != nil {
		return err
	}
	fmt.Printf("scanned %d entries (%d bytes): evicted %d (%d bytes), removed %d stale temp(s), %d bytes remain\n",
		res.Scanned, res.TotalBytes, res.Evicted, res.EvictedBytes, res.TempRemoved, res.RemainingBytes)
	return nil
}

// runJournal inspects a serve job journal. The only mode is fsck: verify
// every frame (magic, version, checksum), replay the valid prefix and
// summarize the job table. The chaos harness runs it after every
// SIGKILL: a torn tail is the expected signature of a crash mid-append
// and exits 0; an unreadable file or a journal with no valid content
// exits 1.
func runJournal(args []string) error {
	if len(args) < 1 || args[0] != "fsck" {
		return fmt.Errorf("usage: hifidram journal fsck FILE")
	}
	fs := flag.NewFlagSet("journal fsck", flag.ExitOnError)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hifidram journal fsck FILE")
	}
	path := fs.Arg(0)
	rep, _, err := serve.FsckJournal(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d record(s), %d job(s) (%d live, %d terminal), %d valid byte(s)",
		path, rep.Records, rep.Jobs, rep.Live, rep.Terminal, rep.ValidBytes)
	if rep.TornBytes > 0 {
		fmt.Printf(", torn tail %d byte(s) (will be truncated on next serve start)", rep.TornBytes)
	}
	fmt.Println()
	return nil
}

// runServe runs the reconstruction job service: an HTTP/JSON API in
// front of a bounded job queue and a worker pool of supervised pipeline
// campaigns, with a shared content-addressed result cache so identical
// submissions compute once. The server runs until SIGINT/SIGTERM, then
// shuts down gracefully: in-flight HTTP requests finish, running jobs
// are canceled at their next unit of work, and the process exits 130.
func runServe(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	workers := workersFlag(fs)
	jobs := fs.Int("jobs", 2, "jobs executing concurrently (the worker budget is split between them)")
	queue := fs.Int("queue", 16, "pending-job queue depth; submissions beyond it get HTTP 503")
	cacheDir := fs.String("cache-dir", "", "shared result + stage-checkpoint cache directory (empty disables caching and cross-restart dedupe)")
	cacheBytes := fs.Int64("cache-bytes", 0, "byte budget for -cache-dir: sweep LRU-first after each run, pinning live jobs' entries (0 = unbounded)")
	journalPath := fs.String("journal", "", "write-ahead job journal file: accepted jobs are fsynced before acknowledgement and recovered on restart (empty = jobs die with the process)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant submission rate limit in jobs/second; over it gets HTTP 429 (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant rate-limit burst size (0 = one second of -tenant-rate)")
	tenantInflight := fs.Int("tenant-inflight", 0, "per-tenant cap on live (queued+running) jobs; over it gets HTTP 429 (0 = unlimited)")
	tenantWeights := fs.String("tenant-weights", "", "fair-dequeue weights as tenant=N pairs, comma-separated (e.g. \"alice=3,bob=1\"; unlisted tenants weigh 1)")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = none)")
	sloSpec := fs.String("slo", "", `per-tenant SLOs as semicolon-separated "tenant=availability[/latency]" entries with availability in percent (e.g. "default=99.9/5m;alice=99.99"); exports error-budget and burn-rate gauges on /metrics`)
	shedTarget := fs.Duration("shed-target", 0, "adaptive overload target for standing queue delay: above twice it fresh computations are shed with 503 (0 = disabled)")
	diskHard := fs.Int64("disk-hard", 0, "disk watermark in free bytes on the journal/cache filesystem: below it submissions get HTTP 507 while reads and /metrics stay up, and the cache is swept down to -cache-bytes (0 = disabled)")
	failpoints := fs.String("failpoints", "", `fault-injection spec "SITE=KIND[(ARG)][:MOD=V];..." (e.g. "journal.sync=enospc:times=3"); testing only — overrides `+failpoint.EnvSpec)
	failpointSeed := fs.Int64("failpoint-seed", 1, "deterministic seed for probabilistic failpoints")
	logFormat := fs.String("log-format", "text", `structured log line format for -v/-vv: "text" or "json"`)
	obf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hifidram serve [flags] ADDR (e.g. localhost:8080)")
	}
	addr := fs.Arg(0)
	weights, err := serve.ParseTenantWeights(*tenantWeights)
	if err != nil {
		return err
	}
	var slos map[string]serve.SLOObjective
	if *sloSpec != "" {
		if slos, err = serve.ParseSLOs(*sloSpec); err != nil {
			return err
		}
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("bad -log-format %q (want \"text\" or \"json\")", *logFormat)
	}
	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints, *failpointSeed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hifidram: failpoints armed: %s (seed %d)\n",
			strings.Join(failpoint.Sites(), ","), *failpointSeed)
	} else if err := failpoint.EnableFromEnv(); err != nil {
		return err
	}
	var store *ckpt.Store
	if *cacheDir != "" {
		var err error
		if store, err = ckpt.Open(*cacheDir); err != nil {
			return err
		}
	}
	ob, finishObs := obf.build()
	defer func() {
		if err := finishObs(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	if ob == nil {
		// The service always carries a metric registry: the fleet
		// counters back /healthz, /metrics and the dedupe assertions even
		// when no observability flag is set.
		ob = &obs.Observer{Metrics: obs.NewMetrics()}
	}
	if ob.Log != nil && *logFormat == "json" {
		lvl := slog.LevelInfo
		if obf.vv {
			lvl = slog.LevelDebug
		}
		ob.Log = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	s := serve.New(serve.Config{
		Workers: *workers, Jobs: *jobs, QueueDepth: *queue,
		Cache: store, CacheBytes: *cacheBytes, JournalPath: *journalPath,
		TenantRate: *tenantRate, TenantBurst: *tenantBurst,
		TenantInflight: *tenantInflight, TenantWeights: weights,
		Timeout: *timeout, Obs: ob, SLOs: slos,
		ShedTarget: *shedTarget, DiskHardBytes: *diskHard,
	})
	// The listener comes up before Start so /healthz and /readyz answer
	// during journal recovery: the server reports itself live but not
	// ready until the recovered jobs are re-enqueued.
	httpSrv := serve.NewHTTPServer(addr, s)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if err := s.Start(); err != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
		_ = s.Close(sctx)
		return err
	}
	fmt.Fprintf(os.Stderr, "hifidram: serving on %s (jobs %d, queue %d, cache %q, journal %q, recovered %d)\n",
		addr, *jobs, *queue, *cacheDir, *journalPath, s.Recovered())

	select {
	case err := <-errc:
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(cctx)
		return err
	case <-ctx.Done():
	}
	// Graceful stop: stop accepting HTTP, then drain the pool. Running
	// jobs observe their canceled context at the next unit of work.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		_ = s.Close(sctx)
		return err
	}
	if err := s.Close(sctx); err != nil {
		return err
	}
	// Exit 130 like the other commands on signal cancellation.
	return context.Canceled
}
