#!/bin/sh
# memory-smoke: end-to-end bounded-memory validation for the streaming
# reconstruction pipeline (make memory-smoke).
#
#  1. Build the core test binary once (every run shares it). It runs in
#     the package directory, as `go test` would, so it finds the
#     committed goldens under testdata/.
#  2. Reference run: the whole-stack reference implementation (kept in
#     the core package's tests) reconstructs a deterministic 384-slice
#     stack in a process with no memory limit and writes a canonical
#     result fingerprint (its peak heap goal on this stack measures
#     ~23 MB; see TestMemorySmoke).
#  3. Streaming run: the pooled streaming pipeline reconstructs the
#     same stack in a process under GOMEMLIMIT=16MiB — a ceiling the
#     reference's materialized stacks exceed — and must complete with a
#     fingerprint byte-identical to the reference's.
#  4. Checkpointed runs: RunCtx on chip B4 wired the way every serve job
#     runs — a buffer pool and a checkpoint store — under the
#     same limit, twice against one store: fresh, then resumed. Each
#     process asserts that the store holds exactly one netex entry and
#     that its fingerprint is the committed clean B4 golden; the two
#     fingerprints must also match each other.
#
# GOMEMLIMIT is the hard backstop here: if the streaming path held
# live buffers proportional to stack depth, the run would degrade into
# a GC death spiral against the limit instead of finishing in seconds,
# and the timeout (or a wrong fingerprint) fails the smoke.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d /tmp/hifidram-memory-smoke.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
BIN="$WORK/core.test"

$GO test -c -o "$BIN" ./internal/core
cd internal/core

echo "memory-smoke: reference run (no memory limit)"
HIFIDRAM_MEMORY_SMOKE=reference \
HIFIDRAM_MEMORY_SMOKE_OUT="$WORK/reference.fp" \
    "$BIN" -test.run '^TestMemorySmoke$' -test.count=1 -test.timeout=10m > /dev/null

for RUN in stream run-fresh run-resumed; do
    MODE=${RUN%%-*}
    echo "memory-smoke: $RUN run under GOMEMLIMIT=16MiB"
    GOMEMLIMIT=16MiB \
    HIFIDRAM_MEMORY_SMOKE=$MODE \
    HIFIDRAM_MEMORY_SMOKE_OUT="$WORK/$RUN.fp" \
        "$BIN" -test.run '^TestMemorySmoke$' -test.count=1 -test.timeout=10m > /dev/null
done

check_same() {
    if ! cmp -s "$WORK/$1.fp" "$WORK/$2.fp"; then
        echo "memory-smoke: FAIL — $2 output diverged from $1" >&2
        echo "  $1: $(cat "$WORK/$1.fp")" >&2
        echo "  $2: $(cat "$WORK/$2.fp")" >&2
        exit 1
    fi
}
check_same reference stream
check_same run-fresh run-resumed
echo "memory-smoke: OK — 384-slice streaming reconstruction under 16MiB byte-identical to the reference ($(cut -c1-16 "$WORK/stream.fp")...); checkpointed B4 run, fresh and resumed, under 16MiB matches its golden ($(cut -c1-16 "$WORK/run-fresh.fp")...)"
