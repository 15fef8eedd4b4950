#!/bin/sh
# memory-smoke: end-to-end bounded-memory validation for the streaming
# reconstruction pipeline (make memory-smoke).
#
#  1. Build the core test binary once (every run shares it).
#  2. Reference run: the whole-stack reference implementation (kept in
#     the core package's tests) reconstructs a deterministic 384-slice
#     stack in a process with no memory limit and writes a canonical
#     result fingerprint (its peak heap goal on this stack measures
#     ~23 MB; see TestMemorySmoke).
#  3. Streaming run: the pooled streaming pipeline reconstructs the
#     same stack in a process under GOMEMLIMIT=16MiB — a ceiling the
#     reference's materialized stacks exceed — and must complete.
#  4. Checkpointed run: the same streaming reconstruction with a
#     checkpoint store attached and resume on — the wiring every serve
#     job uses — under the same limit.
#  5. All three fingerprints must match byte for byte: bounding the
#     memory, with or without checkpoints, changed nothing about the
#     output.
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

echo "memory-smoke: reference run (no memory limit)"
HIFIDRAM_MEMORY_SMOKE=reference \
HIFIDRAM_MEMORY_SMOKE_OUT="$WORK/reference.fp" \
    "$BIN" -test.run '^TestMemorySmoke$' -test.count=1 -test.timeout=10m > /dev/null

for MODE in stream ckpt; do
    echo "memory-smoke: $MODE run under GOMEMLIMIT=16MiB"
    GOMEMLIMIT=16MiB \
    HIFIDRAM_MEMORY_SMOKE=$MODE \
    HIFIDRAM_MEMORY_SMOKE_OUT="$WORK/$MODE.fp" \
        "$BIN" -test.run '^TestMemorySmoke$' -test.count=1 -test.timeout=10m > /dev/null
    if ! cmp -s "$WORK/reference.fp" "$WORK/$MODE.fp"; then
        echo "memory-smoke: FAIL — $MODE output diverged from the reference" >&2
        echo "  reference: $(cat "$WORK/reference.fp")" >&2
        echo "  $MODE: $(cat "$WORK/$MODE.fp")" >&2
        exit 1
    fi
done
echo "memory-smoke: OK — 384-slice streaming reconstruction under 16MiB, plain and checkpointed, byte-identical ($(cat "$WORK/stream.fp" | cut -c1-16)...)"
