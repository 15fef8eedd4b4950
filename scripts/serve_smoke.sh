#!/bin/sh
# serve-smoke: end-to-end validation of the reconstruction job service
# (make serve-smoke).
#
#  1. Start `hifidram serve` on a free localhost port with a fresh
#     cache directory.
#  2. Submit a fast-profile extraction job over HTTP and poll until it
#     completes.
#  3. Fetch the report and GDS artifacts and checksum them.
#  4. Submit the identical request again: it must complete at submit
#     time (HTTP 200, cache_hit true — never a second computation), and
#     its artifacts must be byte-identical to the first job's.
#  5. /healthz must report exactly one pipeline run for the two jobs.
#  6. The cache must hold exactly one serve.* entry (the job's whole
#     artifact set), and `hifidram ckpt -dir` must verify it clean.
#  7. Shut the server down with SIGTERM; it must exit 130 (graceful
#     signal exit, same convention as the other commands).
set -eu

GO=${GO:-go}
WORK=$(mktemp -d /tmp/hifidram-serve-smoke.XXXXXX)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
BIN="$WORK/hifidram"
ADDR="127.0.0.1:18750"
BASE="http://$ADDR"
REQ='{"chip":"B4","profile":"fast"}'

$GO build -o "$BIN" ./cmd/hifidram

echo "serve-smoke: starting server on $ADDR"
"$BIN" serve -cache-dir "$WORK/cache" -jobs 1 "$ADDR" 2> "$WORK/server.log" &
SERVER_PID=$!

# Wait for the listener.
i=0
until curl -fsS "$BASE/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    [ $i -gt 50 ] && { echo "server never came up"; cat "$WORK/server.log"; exit 1; }
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died"; cat "$WORK/server.log"; exit 1; }
    sleep 0.2
done

echo "serve-smoke: submitting job"
curl -fsS -X POST -d "$REQ" "$BASE/v1/jobs" > "$WORK/submit1.json"
JOB=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$WORK/submit1.json" | head -1)
[ -n "$JOB" ] || { echo "no job id in response:"; cat "$WORK/submit1.json"; exit 1; }

echo "serve-smoke: polling $JOB"
i=0
while :; do
    curl -fsS "$BASE/v1/jobs/$JOB" > "$WORK/status.json"
    STATE=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$WORK/status.json" | head -1)
    case "$STATE" in
    done) break ;;
    failed | canceled) echo "job ended $STATE:"; cat "$WORK/status.json"; exit 1 ;;
    esac
    i=$((i + 1))
    [ $i -gt 600 ] && { echo "job never finished"; cat "$WORK/status.json"; exit 1; }
    sleep 0.5
done

echo "serve-smoke: fetching artifacts"
curl -fsS "$BASE/v1/jobs/$JOB/artifacts/report.json" > "$WORK/report1.json"
curl -fsS "$BASE/v1/jobs/$JOB/artifacts/extracted.gds" > "$WORK/extracted1.gds"
grep -q '"chip": "B4"' "$WORK/report1.json" || { echo "report lacks chip:"; cat "$WORK/report1.json"; exit 1; }
[ -s "$WORK/extracted1.gds" ] || { echo "empty GDS artifact"; exit 1; }

echo "serve-smoke: identical resubmission must be served from cache"
CODE=$(curl -sS -o "$WORK/submit2.json" -w '%{http_code}' -X POST -d "$REQ" "$BASE/v1/jobs")
[ "$CODE" = "200" ] || { echo "resubmit returned $CODE, want 200 (done at submit):"; cat "$WORK/submit2.json"; exit 1; }
grep -q '"state": "done"' "$WORK/submit2.json" || { echo "resubmit not done:"; cat "$WORK/submit2.json"; exit 1; }
grep -q '"cache_hit": true' "$WORK/submit2.json" || { echo "resubmit not a cache hit:"; cat "$WORK/submit2.json"; exit 1; }
JOB2=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$WORK/submit2.json" | head -1)

curl -fsS "$BASE/v1/jobs/$JOB2/artifacts/report.json" > "$WORK/report2.json"
curl -fsS "$BASE/v1/jobs/$JOB2/artifacts/extracted.gds" > "$WORK/extracted2.gds"
cmp -s "$WORK/report1.json" "$WORK/report2.json" || { echo "report artifacts differ between jobs"; exit 1; }
cmp -s "$WORK/extracted1.gds" "$WORK/extracted2.gds" || { echo "GDS artifacts differ between jobs"; exit 1; }

curl -fsS "$BASE/healthz" > "$WORK/health.json"
grep -q '"runs": 1' "$WORK/health.json" || { echo "expected exactly 1 pipeline run:"; cat "$WORK/health.json"; exit 1; }
grep -q '"cache_hits": 1' "$WORK/health.json" || { echo "expected 1 cache hit:"; cat "$WORK/health.json"; exit 1; }

echo "serve-smoke: cache layout"
NSERVE=$(find "$WORK/cache" -name 'serve.*.ckpt' -type f | wc -l)
[ "$NSERVE" -eq 1 ] || { echo "cache holds $NSERVE serve.* entries, want 1:"; find "$WORK/cache" -name '*.ckpt'; exit 1; }
"$BIN" ckpt -dir "$WORK/cache" > "$WORK/ckpt.txt" || { echo "cache does not verify:"; cat "$WORK/ckpt.txt"; exit 1; }

echo "serve-smoke: graceful shutdown"
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=
[ "$RC" = "130" ] || { echo "server exit status $RC, want 130"; cat "$WORK/server.log"; exit 1; }

echo "serve-smoke: OK (job computed once, resubmission cache-hit, artifacts byte-identical, one result entry)"
