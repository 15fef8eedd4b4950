#!/bin/sh
# overload-smoke: end-to-end validation of the service's overload
# resilience (make overload-smoke). Every round drives a real server
# over real HTTP into a distinct degraded regime using deterministic
# failpoints, and asserts the documented client-visible contract:
#
#  1. Shed round: with -shed-target tiny and the worker wedged by a
#     delay failpoint, a fresh submission is shed with 503 and an
#     honest drain-rate Retry-After; a queued job whose deadline lapses
#     is canceled with a deadline cause without consuming the worker;
#     `top -once` renders the SHEDDING state and `metricscheck
#     -require` proves the overload gauges are exported.
#  2. Sweep round: a default-profile submission is accepted and runs
#     as the default profile (no brownout key, two units' worth of
#     bitlines in its report), and the cache sweep runs after it.
#  3. Disk-full round: free space pinned below the hard watermark
#     rejects submissions with 507 + Retry-After while /metrics and
#     /readyz stay alive.
#  4. Failure-entry round: a per-chip error failpoint fails a run,
#     which stores its error in the cache; the identical request then
#     fails at submit time with no run, a voxel_nm sibling and another
#     chip still run, `top -once` shows the failure hits, and after a
#     restart on the same cache without the failpoint the identical
#     request still fails with zero runs.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d /tmp/hifidram-overload-smoke.XXXXXX)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
BIN="$WORK/hifidram"
ADDR="127.0.0.1:18752"
BASE="http://$ADDR"

$GO build -o "$BIN" ./cmd/hifidram

wait_up() {
    up_n=0
    until curl -fsS "$BASE/readyz" > /dev/null 2>&1; do
        up_n=$((up_n + 1))
        [ $up_n -gt 100 ] && { echo "server never came up"; tail -20 "$WORK/server.log"; exit 1; }
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died on startup"; tail -20 "$WORK/server.log"; exit 1; }
        sleep 0.1
    done
}

stop_server() {
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=
}

# submit BODY OUTFILE [HEADER] -> http code
submit() {
    if [ -n "${3:-}" ]; then
        curl -sS -o "$2" -w '%{http_code}' -H "$3" -X POST -d "$1" "$BASE/v1/jobs"
    else
        curl -sS -o "$2" -w '%{http_code}' -X POST -d "$1" "$BASE/v1/jobs"
    fi
}

job_id() {
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$1" | head -1
}

# counter NAME -> the server's NAME counter (0 before it first moves)
counter() {
    curl -fsS "$BASE/metrics" | sed -n "s/^$1 \([0-9]*\).*/\1/p" | grep . || echo 0
}

runs() {
    counter serve_runs_total
}

# wait_state JOB STATE POLLS
wait_state() {
    ws_n=0
    while :; do
        curl -fsS "$BASE/v1/jobs/$1" > "$WORK/status.json"
        STATE=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$WORK/status.json" | head -1)
        [ "$STATE" = "$2" ] && return 0
        case "$STATE" in
        done | failed | canceled)
            echo "job $1 ended $STATE, want $2:"; cat "$WORK/status.json"; exit 1 ;;
        esac
        ws_n=$((ws_n + 1))
        [ $ws_n -gt "$3" ] && { echo "job $1 stuck in $STATE, want $2"; exit 1; }
        sleep 0.5
    done
}

echo "overload-smoke: round 1 — shed + deadline under a wedged worker"
"$BIN" serve -cache-dir "$WORK/cache1" -jobs 1 -shed-target 50ms \
    -failpoints 'serve.run.B4=delay(4s)' "$ADDR" 2> "$WORK/server.log" &
SERVER_PID=$!
wait_up
CODE=$(submit '{"chip":"B4","profile":"fast"}' "$WORK/s1.json")
[ "$CODE" = "202" ] || { echo "submit 1 returned $CODE, want 202:"; cat "$WORK/s1.json"; exit 1; }
S1=$(job_id "$WORK/s1.json")
CODE=$(submit '{"chip":"B4","profile":"fast","voxel_nm":12,"deadline_ms":500}' "$WORK/s2.json")
[ "$CODE" = "202" ] || { echo "submit 2 returned $CODE, want 202:"; cat "$WORK/s2.json"; exit 1; }
S2=$(job_id "$WORK/s2.json")
grep -q '"deadline_ms": 500' "$WORK/s2.json" || { echo "deadline not in JobStatus:"; cat "$WORK/s2.json"; exit 1; }
# Let the queued job age past 2x the shed target, then a fresh leader
# must bounce with an honest Retry-After.
sleep 1
CODE=$(curl -sS -D "$WORK/s3.hdr" -o "$WORK/s3.json" -w '%{http_code}' -X POST \
    -d '{"chip":"B4","profile":"fast","voxel_nm":16}' "$BASE/v1/jobs")
[ "$CODE" = "503" ] || { echo "shed submit returned $CODE, want 503:"; cat "$WORK/s3.json"; exit 1; }
grep -qi '^retry-after:' "$WORK/s3.hdr" || { echo "shed 503 lacks Retry-After:"; cat "$WORK/s3.hdr"; exit 1; }

echo "overload-smoke: overload gauges + top view under shed"
"$BIN" metricscheck -require 'serve_shed_level,serve_shed_total,serve_ready' "$BASE/metrics"
"$BIN" top -once "$ADDR" > "$WORK/top1.txt"
grep -q 'SHEDDING' "$WORK/top1.txt" || { echo "top does not show SHEDDING:"; cat "$WORK/top1.txt"; exit 1; }

# The queued job's 500ms deadline lapsed while it waited; when the
# worker frees it must be shed as canceled(deadline), never run.
wait_state "$S2" canceled 60
grep -q 'deadline' "$WORK/status.json" || { echo "canceled without deadline cause:"; cat "$WORK/status.json"; exit 1; }
"$BIN" metricscheck -require 'serve_deadline_shed_total' "$BASE/metrics"
wait_state "$S1" done 120
stop_server

echo "overload-smoke: round 2 — default profile runs as asked, the cache is swept after the run"
"$BIN" serve -cache-dir "$WORK/cache2" -cache-bytes 100000000 -journal "$WORK/j2.journal" -jobs 1 \
    "$ADDR" 2>> "$WORK/server.log" &
SERVER_PID=$!
wait_up
SWEEPS=$(counter serve_gc_runs_total)
CODE=$(submit '{"chip":"B4"}' "$WORK/b1.json")
[ "$CODE" = "202" ] || { echo "default-profile submit returned $CODE, want 202:"; cat "$WORK/b1.json"; exit 1; }
grep -q '"brownout"' "$WORK/b1.json" && { echo "JobStatus still carries a brownout key:"; cat "$WORK/b1.json"; exit 1; }
grep -q '"profile"' "$WORK/b1.json" && { echo "default-profile submission changed profile:"; cat "$WORK/b1.json"; exit 1; }
B1=$(job_id "$WORK/b1.json")
wait_state "$B1" done 240
# The default profile images 2 SA units (8 bitlines); fast images 1 (4).
curl -fsS "$BASE/v1/jobs/$B1/artifacts/report.json" > "$WORK/b1.report.json"
grep -q '"bitlines_true": 8' "$WORK/b1.report.json" || { echo "report is not the default profile's:"; cat "$WORK/b1.report.json"; exit 1; }
# The sweep follows the terminal state, so give it a moment.
gc_n=0
until [ "$(counter serve_gc_runs_total)" -gt "$SWEEPS" ]; do
    gc_n=$((gc_n + 1))
    [ $gc_n -gt 50 ] && { echo "serve_gc_runs_total stayed at $SWEEPS after the run"; exit 1; }
    sleep 0.2
done
stop_server

echo "overload-smoke: round 3 — hard disk watermark rejects with 507, reads stay alive"
"$BIN" serve -cache-dir "$WORK/cache3" -journal "$WORK/j3.journal" -jobs 1 \
    -disk-hard 100000 \
    -failpoints 'serve.disk.free=value(50000)' "$ADDR" 2>> "$WORK/server.log" &
SERVER_PID=$!
wait_up
hp_n=0
until curl -fsS "$BASE/metrics" | grep -q '^serve_disk_pressure 1'; do
    hp_n=$((hp_n + 1))
    [ $hp_n -gt 50 ] && { echo "hard disk pressure never registered"; exit 1; }
    sleep 0.2
done
CODE=$(curl -sS -D "$WORK/d1.hdr" -o "$WORK/d1.json" -w '%{http_code}' -X POST \
    -d '{"chip":"B4","profile":"fast"}' "$BASE/v1/jobs")
[ "$CODE" = "507" ] || { echo "full-disk submit returned $CODE, want 507:"; cat "$WORK/d1.json"; exit 1; }
grep -qi '^retry-after:' "$WORK/d1.hdr" || { echo "507 lacks Retry-After:"; cat "$WORK/d1.hdr"; exit 1; }
curl -fsS "$BASE/metrics" > /dev/null || { echo "/metrics down under hard pressure"; exit 1; }
curl -fsS "$BASE/v1/jobs" > /dev/null || { echo "job list down under hard pressure"; exit 1; }
"$BIN" metricscheck -require 'serve_disk_free_bytes,serve_disk_pressure' "$BASE/metrics"
"$BIN" top -once "$ADDR" > "$WORK/top3.txt"
grep -q 'pressure HARD' "$WORK/top3.txt" || { echo "top does not show hard pressure:"; cat "$WORK/top3.txt"; exit 1; }
stop_server

echo "overload-smoke: round 4 — a deterministic failure is stored under the request's key"
"$BIN" serve -cache-dir "$WORK/cache4" -jobs 1 \
    -failpoints 'serve.run.B4=error(poisoned chip)' "$ADDR" 2>> "$WORK/server.log" &
SERVER_PID=$!
wait_up
POISONED='{"chip":"B4","profile":"fast"}'
CODE=$(submit "$POISONED" "$WORK/f1.json")
[ "$CODE" = "202" ] || { echo "poisoned submit returned $CODE:"; cat "$WORK/f1.json"; exit 1; }
wait_state "$(job_id "$WORK/f1.json")" failed 60
RUNS=$(runs)
[ "$RUNS" = "1" ] || { echo "serve_runs_total $RUNS after one run, want 1"; exit 1; }
# The identical request fails at submit time, with the same error and
# no run.
CODE=$(submit "$POISONED" "$WORK/f2.json")
[ "$CODE" = "200" ] || { echo "identical resubmission returned $CODE, want 200:"; cat "$WORK/f2.json"; exit 1; }
grep -q '"state": "failed"' "$WORK/f2.json" || { echo "identical resubmission did not fail at once:"; cat "$WORK/f2.json"; exit 1; }
grep -q 'poisoned chip' "$WORK/f2.json" || { echo "identical resubmission lacks the stored error:"; cat "$WORK/f2.json"; exit 1; }
RUNS=$(runs)
[ "$RUNS" = "1" ] || { echo "serve_runs_total moved to $RUNS on an identical resubmission"; exit 1; }
# A sibling request (another voxel size) is another identity: it runs
# (and fails on the poisoned chip); another chip runs to done.
CODE=$(submit '{"chip":"B4","profile":"fast","voxel_nm":12}' "$WORK/f3.json")
[ "$CODE" = "202" ] || { echo "voxel_nm sibling returned $CODE, want 202:"; cat "$WORK/f3.json"; exit 1; }
wait_state "$(job_id "$WORK/f3.json")" failed 60
RUNS=$(runs)
[ "$RUNS" = "2" ] || { echo "serve_runs_total $RUNS after the sibling, want 2"; exit 1; }
CODE=$(submit '{"chip":"C4","profile":"fast"}' "$WORK/c1.json")
[ "$CODE" = "202" ] || { echo "healthy chip returned $CODE:"; cat "$WORK/c1.json"; exit 1; }
wait_state "$(job_id "$WORK/c1.json")" done 240
"$BIN" metricscheck -require 'serve_failure_hits_total,serve_runs_total' "$BASE/metrics"
"$BIN" top -once "$ADDR" > "$WORK/top4.txt"
grep -q 'failure hits 1' "$WORK/top4.txt" || { echo "top does not show the failure hit:"; cat "$WORK/top4.txt"; exit 1; }
stop_server
# Next life, same cache, no failpoint: the entry still answers.
"$BIN" serve -cache-dir "$WORK/cache4" -jobs 1 "$ADDR" 2>> "$WORK/server.log" &
SERVER_PID=$!
wait_up
CODE=$(submit "$POISONED" "$WORK/f4.json")
[ "$CODE" = "200" ] || { echo "resubmission after restart returned $CODE, want 200:"; cat "$WORK/f4.json"; exit 1; }
grep -q '"state": "failed"' "$WORK/f4.json" || { echo "resubmission after restart did not fail at once:"; cat "$WORK/f4.json"; exit 1; }
RUNS=$(runs)
[ "$RUNS" = "0" ] || { echo "serve_runs_total $RUNS after restart, want 0"; exit 1; }
stop_server

echo "overload-smoke: OK (shed 503 + Retry-After, deadline shed, default profile + sweep after the run, 507 hard watermark, failure entry + top/metrics views)"
