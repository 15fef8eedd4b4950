#!/bin/sh
# crash-smoke: end-to-end crash/resume validation for the checkpoint
# pipeline (make crash-smoke).
#
# A run checkpoints one boundary, its finished extraction ("netex"),
# written atomically once reconstruction is done. The smoke proves both
# halves of the contract around it:
#
#  1. Run a checkpointed extraction to completion — the reference output.
#  2. Start the same run against a fresh store and SIGKILL it
#     mid-pipeline: no cleanup handlers run, exactly like a crash or OOM
#     kill.
#  3. `hifidram ckpt` must report the survivor store healthy — a torn
#     in-flight temp file never becomes a *.ckpt.
#  4. Resume. Nothing verified survived the kill, so the run must
#     recompute (ckpt.miss), succeed, match the reference and persist
#     its netex checkpoint.
#  5. Tear that netex checkpoint in half (simulating a torn write that
#     DID reach the final name, e.g. on a non-atomic filesystem):
#     `hifidram ckpt` must now flag exactly that entry corrupt.
#  6. Resume. The corrupt checkpoint must be recomputed, never served
#     (ckpt.corrupt counter), the run must succeed, and its report must
#     be byte-identical to the reference.
#  7. After the resume the store must verify healthy again (healed).
#  8. Run once more on the healed store: it must load the checkpoint
#     (ckpt.hit) instead of recomputing and match the reference.
#
# Every run reads the store it is given; there is no flag to ask for it.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d /tmp/hifidram-crash-smoke.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
BIN="$WORK/hifidram"
CHIP=C4
FLAGS="-chip $CHIP -voxel 8"

$GO build -o "$BIN" ./cmd/hifidram

echo "crash-smoke: reference run"
"$BIN" extract $FLAGS -ckpt-dir "$WORK/ref-ckpt" > "$WORK/ref.txt"

echo "crash-smoke: SIGKILL mid-run"
"$BIN" extract $FLAGS -ckpt-dir "$WORK/ckpt" > /dev/null 2>&1 &
PID=$!
# The full run takes seconds; a kill after half a second lands while
# the stack is still streaming through reconstruction.
sleep 0.5
KILLED=0
if kill -0 $PID 2>/dev/null; then
    kill -KILL $PID 2>/dev/null && KILLED=1
else
    echo "crash-smoke: run finished before the kill"
fi
wait $PID 2>/dev/null || true

echo "crash-smoke: store must verify healthy after SIGKILL"
mkdir -p "$WORK/ckpt"
"$BIN" ckpt -dir "$WORK/ckpt"

echo "crash-smoke: resume after the kill must recompute and match the reference"
"$BIN" extract $FLAGS -ckpt-dir "$WORK/ckpt" -stats > "$WORK/killed.txt" 2> "$WORK/killed-stats.txt"
if [ $KILLED = 1 ] && ! grep -q 'ckpt.miss' "$WORK/killed-stats.txt"; then
    echo "crash-smoke: FAIL — resume after the kill did not recompute (no ckpt.miss)"
    exit 1
fi
if ! diff "$WORK/ref.txt" "$WORK/killed.txt"; then
    echo "crash-smoke: FAIL — output resumed after the kill differs from reference"
    exit 1
fi
VICTIM=$(find "$WORK/ckpt" -name 'netex.ckpt' | head -1)
if [ -z "$VICTIM" ]; then
    echo "crash-smoke: FAIL — resumed run persisted no netex checkpoint"
    exit 1
fi

echo "crash-smoke: tearing the netex checkpoint in half"
SIZE=$(wc -c < "$VICTIM")
head -c $((SIZE / 2)) "$VICTIM" > "$VICTIM.torn"
mv "$VICTIM.torn" "$VICTIM"
if "$BIN" ckpt -dir "$WORK/ckpt" > "$WORK/verify.txt" 2>&1; then
    echo "crash-smoke: FAIL — torn checkpoint not detected"
    cat "$WORK/verify.txt"
    exit 1
fi
grep -q CORRUPT "$WORK/verify.txt"

echo "crash-smoke: resume must recompute the torn stage and match the reference"
"$BIN" extract $FLAGS -ckpt-dir "$WORK/ckpt" -stats > "$WORK/resumed.txt" 2> "$WORK/resumed-stats.txt"
grep -q 'ckpt.corrupt' "$WORK/resumed-stats.txt" || {
    echo "crash-smoke: FAIL — ckpt.corrupt counter not reported"
    exit 1
}
if ! diff "$WORK/ref.txt" "$WORK/resumed.txt"; then
    echo "crash-smoke: FAIL — resumed output differs from reference"
    exit 1
fi

echo "crash-smoke: store must be healed after the resume"
"$BIN" ckpt -dir "$WORK/ckpt"

echo "crash-smoke: a run on the healed store must load it and match the reference"
"$BIN" extract $FLAGS -ckpt-dir "$WORK/ckpt" -stats > "$WORK/healed.txt" 2> "$WORK/healed-stats.txt"
grep -q 'ckpt.hit' "$WORK/healed-stats.txt" || {
    echo "crash-smoke: FAIL — run on the healed store did not load its checkpoint (no ckpt.hit)"
    exit 1
}
if ! diff "$WORK/ref.txt" "$WORK/healed.txt"; then
    echo "crash-smoke: FAIL — output loaded from the healed store differs from reference"
    exit 1
fi

echo "crash-smoke: ok"
