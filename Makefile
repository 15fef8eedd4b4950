GO ?= go

.PHONY: build test vet cross-vet perfbench-vet fmt-check race alloc-check bench-smoke residual-check check faults-smoke trace-smoke crash-smoke serve-smoke serve-chaos-smoke metrics-smoke overload-smoke memory-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cross-vet compiles and vets every package for arm64, where the TV
# sweep has no assembly and its Go loop is the only path: a missing
# non-amd64 stub fails here, not on the first arm64 build.
cross-vet:
	GOARCH=arm64 $(GO) vet ./...

# perfbench-vet compiles and vets the benchmark module. It is a Go module
# of its own (replace repro => ../), so the root `go build ./...` never
# compiles it: without this target, deleting an API the benchmark calls
# would pass every other check and only fail the benchmark run.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing it.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# race runs the full suite under the race detector; the reconstruction
# hot path fans out on a worker pool, so every change must pass this.
# The fault-injection pipeline tests run full reconstructions, which the
# race detector slows past the default 10-minute package budget.
race:
	$(GO) test -race -timeout 45m ./...

# faults-smoke proves the self-healing path end to end: a fault-injected
# acquisition (default plan corrupts >=10% of the slices) must still
# extract the correct topology on a classic and an OCSA chip.
faults-smoke:
	$(GO) run ./cmd/hifidram extract -chip C4 -faults
	$(GO) run ./cmd/hifidram extract -chip B5 -faults

# trace-smoke proves the observability layer end to end: a traced
# extraction must write Chrome trace JSON that parses and contains a
# span for every pipeline stage (tracecheck validates both).
trace-smoke:
	$(GO) run ./cmd/hifidram extract -chip C4 -trace /tmp/hifidram-trace.json -stats
	$(GO) run ./cmd/hifidram tracecheck /tmp/hifidram-trace.json

# crash-smoke proves checkpoint/resume end to end against a real crash:
# a run is SIGKILLed mid-pipeline, one surviving checkpoint is torn in
# half to fake an interrupted write, and the resumed run must detect the
# damage (ckpt verify / recompute), finish from the surviving boundaries
# and produce output identical to an uninterrupted run; a last run on the
# healed store must load its checkpoint (ckpt.hit). See the recipe for
# the step-by-step assertions.
crash-smoke:
	./scripts/crash_smoke.sh

# serve-smoke proves the job service end to end over real HTTP: start
# the server, submit an extraction job with curl, poll it to done,
# fetch and checksum the artifacts, then resubmit the identical request
# — it must be served from the shared result cache (HTTP 200 at submit,
# exactly one pipeline run, byte-identical artifacts) — and finally
# shut down gracefully on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# serve-chaos-smoke proves the durable job journal against real
# SIGKILLs: 20 randomized kill/restart cycles with torn-tail and
# cache-overfill injection, `journal fsck` after every kill, and a final
# drain asserting no acknowledged job was lost, none ran twice to
# completion (resubmission is a cache hit), artifacts are byte-identical
# to an uninterrupted run, and the cache honors -cache-bytes.
serve-chaos-smoke:
	./scripts/serve_chaos.sh

# metrics-smoke proves the service observability layer end to end: a
# server must pass /readyz, complete a correlated job
# (X-Request-Id echoed, surfaced in the status, present in the JSON
# access log), expose a strict-parseable Prometheus document containing
# the labeled latency histograms and SLO burn-rate gauges
# (`metricscheck -require`), and render a `top -once` fleet frame.
metrics-smoke:
	./scripts/metrics_smoke.sh

# overload-smoke proves the overload-resilience layer end to end with
# deterministic failpoints: a wedged worker must shed fresh submissions
# (503 + drain-rate Retry-After) and cancel queue-expired deadlines
# without running them, a default-profile submission must run as the
# default profile with the cache sweep after it, the disk watermark
# must 507 while reads stay alive, and a poisoned
# chip's failed request must fail again at once from its stored
# failure entry (also after a restart) while siblings and other chips
# run — all visible in `top -once` and asserted in /metrics via
# `metricscheck -require`.
overload-smoke:
	./scripts/overload_smoke.sh

# alloc-check pins the allocation-free kernels: steady-state MI
# candidate evaluation and TV denoising with a warm Scratch must stay at
# zero heap allocations, and a warm MI search at production geometry
# must draw its bin tables from the pool (no table-sized allocation, at
# most 9 objects per single-worker Align).
alloc-check:
	$(GO) test ./internal/register ./internal/denoise -run 'AllocFree' -count=1

# bench-smoke runs the kernel benchmarks once each (the TV sweep, the MI
# pair, the residual drift, the reslice median), so a benchmark whose
# set-up breaks fails CI rather than the next performance change that
# needs it.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkChambolleSlice|BenchmarkAlignPairB4|BenchmarkResidualB4|BenchmarkResliceB4)$$' -benchtime 1x .

# residual-check runs the residual population: six chips, clean and at
# fault seeds 1-3, under dwell 12, serve's default and serve's fast
# profile (72 runs). Every run must report the residual drift and the
# plan that a full MI search on every aligned pair gives. It takes a few
# minutes, so it is built only under the residualcheck tag.
residual-check:
	$(GO) test -tags residualcheck ./internal/core -run '^TestResidualPopulation$$' -count=1 -timeout 30m

# memory-smoke proves the streaming pipeline's bounded-memory contract
# end to end: a 384-slice reconstruction must complete under a hard
# GOMEMLIMIT the whole-stack test reference's materialized stacks
# exceed, with output byte-identical to an unlimited run of that
# reference; then a B4 run wired like a serve job (buffer pool,
# checkpoint store) must complete under the same limit, fresh
# and resumed, leave exactly one netex checkpoint and match its
# committed golden.
memory-smoke:
	./scripts/memory_smoke.sh

# check is the CI gate: formatting, static analysis (the benchmark
# module and an arm64 build included), the allocation regression tests,
# one pass of the kernel benchmarks, race-checked tests, the residual
# population, and the
# fault-injection, observability, crash-recovery, job-service,
# service-metrics, overload-resilience and bounded-memory smoke runs.
check: fmt-check vet cross-vet perfbench-vet alloc-check bench-smoke race residual-check faults-smoke trace-smoke crash-smoke serve-smoke serve-chaos-smoke metrics-smoke overload-smoke memory-smoke

# fuzz exercises the fuzz targets briefly (the seed corpora always run
# as part of `test`).
fuzz:
	$(GO) test ./internal/segment -fuzz FuzzDecomposeTol -fuzztime 30s
