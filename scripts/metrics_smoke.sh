#!/bin/sh
# metrics-smoke: end-to-end validation of the service observability
# layer (make metrics-smoke).
#
#  1. Start `hifidram serve` with an SLO spec and JSON logs (the
#     latency histograms need no flag).
#  2. /readyz must report ready (and /healthz must agree).
#  3. Submit a fast-profile job with an X-Request-Id and poll it to
#     done; the correlation ID must be echoed on the response and
#     surfaced in the job status.
#  4. Submit a second job with no tenant, so the scrape covers the
#     unlabeled series of every tenant-labeled family too.
#  5. Scrape /metrics and validate it with `hifidram metricscheck
#     -require`: a strict exposition parse (each family typed once, no
#     repeated series) plus presence of the labeled latency histograms
#     and the SLO burn-rate gauge. Each job's queue wait must be counted
#     exactly once, under its own tenant.
#  6. `hifidram top -once` must render a fleet frame showing the
#     completed job.
#  7. The JSON access log must carry the request ID.
#  8. Shut down with SIGTERM; the server must exit 130.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d /tmp/hifidram-metrics-smoke.XXXXXX)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
BIN="$WORK/hifidram"
ADDR="127.0.0.1:18760"
BASE="http://$ADDR"
REQ='{"chip":"B4","profile":"fast","tenant":"smoke"}'
ANON_REQ='{"chip":"B4","profile":"fast"}'
CORR="metrics-smoke-corr-1"

$GO build -o "$BIN" ./cmd/hifidram

echo "metrics-smoke: starting server on $ADDR"
"$BIN" serve -jobs 1 -slo 'default=99/60s' -v -log-format json \
    "$ADDR" 2> "$WORK/server.log" &
SERVER_PID=$!

i=0
until curl -fsS "$BASE/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    [ $i -gt 50 ] && { echo "server never became ready"; cat "$WORK/server.log"; exit 1; }
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died"; cat "$WORK/server.log"; exit 1; }
    sleep 0.2
done
curl -fsS "$BASE/healthz" | grep -q '"ready": true' || {
    echo "healthz does not report ready"
    exit 1
}

echo "metrics-smoke: submitting job (corr $CORR)"
curl -fsS -D "$WORK/headers" -X POST -H "X-Request-Id: $CORR" -d "$REQ" \
    "$BASE/v1/jobs" > "$WORK/submit.json"
grep -qi "^X-Request-Id: $CORR" "$WORK/headers" || {
    echo "request ID not echoed:"
    cat "$WORK/headers"
    exit 1
}
grep -q "\"correlation\": \"$CORR\"" "$WORK/submit.json" || {
    echo "correlation ID missing from job status:"
    cat "$WORK/submit.json"
    exit 1
}
# wait_done SUBMIT_JSON polls the job named in a submit response to done.
wait_done() {
    JOB=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$1" | head -1)
    [ -n "$JOB" ] || { echo "no job id in response:"; cat "$1"; exit 1; }
    echo "metrics-smoke: polling $JOB"
    i=0
    while :; do
        curl -fsS "$BASE/v1/jobs/$JOB" > "$WORK/status.json"
        STATE=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$WORK/status.json" | head -1)
        case "$STATE" in
        done) break ;;
        failed | canceled) echo "job ended $STATE:"; cat "$WORK/status.json"; exit 1 ;;
        esac
        i=$((i + 1))
        [ $i -gt 300 ] && { echo "job never finished"; cat "$WORK/status.json"; exit 1; }
        sleep 1
    done
}
wait_done "$WORK/submit.json"

echo "metrics-smoke: submitting anonymous-tenant job"
curl -fsS -X POST -d "$ANON_REQ" "$BASE/v1/jobs" > "$WORK/submit_anon.json"
wait_done "$WORK/submit_anon.json"

echo "metrics-smoke: validating /metrics"
"$BIN" metricscheck -require \
    'serve_ready,serve_jobs_submitted_total,serve_jobs_done_total,serve_queue_wait_seconds,serve_run_duration_seconds,serve_job_latency_seconds,serve_stage_wall_seconds,serve_slo_burn_rate,serve_slo_error_budget_remaining,img_pool_hits,img_pool_misses,img_pool_peak_live' \
    "$BASE/metrics"
# The per-tenant labels must be on the wire, not just the families.
curl -fsS "$BASE/metrics" > "$WORK/metrics.txt"
grep -q 'serve_job_latency_seconds_count{tenant="smoke"}' "$WORK/metrics.txt" || {
    echo "per-tenant latency series missing from exposition"
    exit 1
}
# One queue-wait observation per job, each under its own tenant.
grep '^serve_queue_wait_seconds_count' "$WORK/metrics.txt" > "$WORK/queue_wait.txt" || true
printf '%s\n' 'serve_queue_wait_seconds_count 1' 'serve_queue_wait_seconds_count{tenant="smoke"} 1' |
    cmp -s - "$WORK/queue_wait.txt" || {
    echo "queue wait not counted exactly once per job:"
    cat "$WORK/queue_wait.txt"
    exit 1
}

echo "metrics-smoke: rendering fleet view"
"$BIN" top -once "$ADDR" > "$WORK/top.txt"
cat "$WORK/top.txt"
grep -q 'smoke' "$WORK/top.txt" || { echo "top frame missing tenant row"; exit 1; }
grep -q 'done 2' "$WORK/top.txt" || { echo "top frame missing completion count"; exit 1; }
grep -q 'img pool:' "$WORK/top.txt" || { echo "top frame missing image-pool line"; exit 1; }

echo "metrics-smoke: checking access log correlation"
grep -q "\"req_id\":\"$CORR\"" "$WORK/server.log" || {
    echo "JSON access log missing the request ID:"
    tail -5 "$WORK/server.log"
    exit 1
}

echo "metrics-smoke: shutting down"
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
SERVER_PID=
[ "$EXIT" -eq 130 ] || { echo "server exit status $EXIT, want 130"; exit 1; }

echo "metrics-smoke: PASS"
