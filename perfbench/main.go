// Command perfbench is the repository's benchmark: it drives the
// reconstruction engine (internal/core) and the job service
// (internal/serve) from outside, checks every operation's output, and
// prints one JSON result line.
//
//	perfbench --workload recon-clean --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric; non-finite values (an empty sample) become 0.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is what every workload receives.
type config struct {
	workload string
	seed     int64
	// seconds is the measuring time; ops, when positive, replaces it
	// with an exact number of timed operations (used by the tests).
	seconds time.Duration
	ops     int
	trace   bool
	// workers is the reconstruction worker count: nproc, at most 2.
	workers int
	// workDir holds the files a run writes (server cache, journal,
	// trace); it lives inside the checkout.
	workDir string
}

// more reports whether a timed loop that started at t0 and has done n
// operations should start another. A duration-bounded loop always runs
// at least one operation.
func (c config) more(t0 time.Time, n int) bool {
	if c.ops > 0 {
		return n < c.ops
	}
	return n == 0 || time.Since(t0) < c.seconds
}

var workloads = map[string]func(config) (*result, error){
	"recon-clean":  func(c config) (*result, error) { return runRecon(c, reconClean) },
	"recon-faults": func(c config) (*result, error) { return runRecon(c, reconFaults) },
	"serve-mix":    runServeMix,
}

func main() {
	workload := flag.String("workload", "", "recon-clean, recon-faults or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: min(runtime.NumCPU(), 2),
	}
	dir, err := prepareWorkDir(workBase)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.workDir = dir
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workBase holds each run's work directory and the traced runs' span
// exports; it is inside the checkout the benchmark runs from.
const workBase = ".bench_build/work"

// prepareWorkDir makes a fresh per-process directory under base.
func prepareWorkDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
